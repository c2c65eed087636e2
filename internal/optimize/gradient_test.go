package optimize

import (
	"math"
	"testing"
)

// quadratic is a separable convex bowl with minimum at c.
func quadratic(c []float64) FuncGrad {
	return func(x, grad []float64) float64 {
		var f float64
		for j := range x {
			d := x[j] - c[j]
			f += d * d
			grad[j] = 2 * d
		}
		return f
	}
}

func TestAdamQuadratic(t *testing.T) {
	c := []float64{1.5, -2, 0.25}
	res := Adam(quadratic(c), make([]float64, 3), AdamOptions{MaxIter: 2000, Step: 0.1})
	if !res.Converged {
		t.Errorf("Adam did not converge: %+v", res)
	}
	for j := range c {
		if math.Abs(res.X[j]-c[j]) > 1e-4 {
			t.Errorf("x[%d] = %v, want %v", j, res.X[j], c[j])
		}
	}
	if res.Evals != res.Iters {
		t.Errorf("Evals %d != Iters %d (one gradient evaluation per iteration)", res.Evals, res.Iters)
	}
}

// TestAdamReturnsBestIterate pins the best-seen contract: on an
// objective where large steps overshoot, the reported optimum is never
// worse than any visited iterate.
func TestAdamReturnsBestIterate(t *testing.T) {
	var visited []float64
	f := func(x, grad []float64) float64 {
		v := x[0] * x[0]
		grad[0] = 2 * x[0]
		visited = append(visited, v)
		return v
	}
	res := Adam(f, []float64{2}, AdamOptions{MaxIter: 25, Step: 1.5})
	for _, v := range visited {
		if res.F > v {
			t.Fatalf("reported F=%v worse than visited %v", res.F, v)
		}
	}
}

func TestGradientOptimizerDefaults(t *testing.T) {
	// Zero-valued options must select usable defaults and terminate.
	res := Adam(quadratic([]float64{1}), []float64{0}, AdamOptions{})
	if res.Iters == 0 || res.Evals == 0 {
		t.Errorf("Adam with default options did not run: %+v", res)
	}
}

func TestCountingGrad(t *testing.T) {
	cf := &CountingGrad{F: quadratic([]float64{0})}
	g := make([]float64, 1)
	for i := 0; i < 5; i++ {
		cf.Eval([]float64{1}, g)
	}
	if cf.Calls != 5 {
		t.Errorf("Calls = %d, want 5", cf.Calls)
	}
}
