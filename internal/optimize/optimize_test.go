package optimize

import (
	"context"
	"math"
	"testing"
)

func sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

func TestNelderMeadQuadratic(t *testing.T) {
	res := NelderMead(func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1) + 5
	}, []float64{0, 0}, NMOptions{})
	if !res.Converged {
		t.Error("did not converge on a quadratic")
	}
	if math.Abs(res.X[0]-3) > 1e-3 || math.Abs(res.X[1]+1) > 1e-3 {
		t.Errorf("argmin %v, want (3,−1)", res.X)
	}
	if math.Abs(res.F-5) > 1e-6 {
		t.Errorf("min %v, want 5", res.F)
	}
	if res.Evals < 3 {
		t.Errorf("implausible eval count %d", res.Evals)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	res := NelderMead(func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}, []float64{-1.2, 1}, NMOptions{MaxIter: 5000, TolF: 1e-12, InitialStep: 0.5})
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("Rosenbrock argmin %v, want (1,1)", res.X)
	}
}

func TestNelderMeadHighDim(t *testing.T) {
	x0 := make([]float64, 8)
	for i := range x0 {
		x0[i] = 1.5
	}
	res := NelderMead(sphere, x0, NMOptions{MaxIter: 20000, TolF: 1e-14})
	if res.F > 1e-6 {
		t.Errorf("8-dim sphere min %v", res.F)
	}
}

func TestNelderMeadEvalBudget(t *testing.T) {
	res := NelderMead(sphere, []float64{5, 5, 5}, NMOptions{MaxEvals: 20})
	if res.Evals > 25 { // small overshoot allowed within one iteration
		t.Errorf("budget 20 but used %d evals", res.Evals)
	}
	if res.F >= sphere([]float64{5, 5, 5}) {
		t.Error("no improvement within budget")
	}
}

func TestNelderMeadZeroDim(t *testing.T) {
	res := NelderMead(func([]float64) float64 { return 7 }, nil, NMOptions{})
	if res.F != 7 || !res.Converged {
		t.Errorf("zero-dim result %+v", res)
	}
}

func TestCounting(t *testing.T) {
	c := &Counting{F: sphere}
	c.Eval([]float64{1})
	c.Eval([]float64{2})
	if c.Calls != 2 {
		t.Errorf("Calls = %d", c.Calls)
	}
}

func TestTQAInitSchedule(t *testing.T) {
	gamma, beta := TQAInit(4, 0.8)
	if len(gamma) != 4 || len(beta) != 4 {
		t.Fatal("wrong lengths")
	}
	for l := 0; l < 4; l++ {
		frac := (float64(l) + 0.5) / 4
		if math.Abs(gamma[l]-frac*0.8) > 1e-15 {
			t.Errorf("gamma[%d] = %v", l, gamma[l])
		}
		if math.Abs(beta[l]-(1-frac)*0.8) > 1e-15 {
			t.Errorf("beta[%d] = %v", l, beta[l])
		}
		// Ramp property: γ increases, β decreases.
		if l > 0 && (gamma[l] <= gamma[l-1] || beta[l] >= beta[l-1]) {
			t.Error("TQA ramp not monotone")
		}
	}
	if gamma[0]+beta[0] != 0.8 {
		t.Errorf("γ+β = %v, want dt", gamma[0]+beta[0])
	}
}

func TestSplitJoinAngles(t *testing.T) {
	g, b := []float64{1, 2}, []float64{3, 4}
	x := JoinAngles(g, b)
	g2, b2 := SplitAngles(x)
	if g2[0] != 1 || g2[1] != 2 || b2[0] != 3 || b2[1] != 4 {
		t.Errorf("round trip failed: %v %v", g2, b2)
	}
	defer func() {
		if recover() == nil {
			t.Error("odd split accepted")
		}
	}()
	SplitAngles([]float64{1, 2, 3})
}

// TestGridAndArgMin covers the landscape helpers.
func TestGridAndArgMin(t *testing.T) {
	gammas := []float64{0.1, 0.2, 0.3}
	betas := []float64{0.4, 0.5}
	xs := Grid(gammas, betas)
	if len(xs) != 6 {
		t.Fatalf("grid size %d, want 6", len(xs))
	}
	// Row-major: xs[i*len(betas)+j] = [gammas[i], betas[j]].
	for i, g := range gammas {
		for j, b := range betas {
			x := xs[i*len(betas)+j]
			if len(x) != 2 || x[0] != g || x[1] != b {
				t.Fatalf("grid[%d,%d] = %v, want [%g %g]", i, j, x, g, b)
			}
		}
	}
	if got := ArgMinEnergies(nil); got != -1 {
		t.Errorf("ArgMinEnergies(nil) = %d, want -1", got)
	}
	if got := ArgMinEnergies([]float64{}); got != -1 {
		t.Errorf("ArgMinEnergies(empty) = %d, want -1", got)
	}
	if got := ArgMinEnergies([]float64{2, -1, 0.5}); got != 1 {
		t.Errorf("ArgMinEnergies = %d, want 1", got)
	}
}

// TestOptimizerCancellation pins the Options.Ctx contract across all
// four optimizers: a cancelled context stops the loop at the next
// iteration boundary, well short of the budget, and the best iterate
// seen so far is still returned.
func TestOptimizerCancellation(t *testing.T) {
	quadratic := func(x []float64) float64 { return (x[0] - 1) * (x[0] - 1) }
	quadGrad := func(x, g []float64) float64 {
		g[0] = 2 * (x[0] - 1)
		return (x[0] - 1) * (x[0] - 1)
	}
	x0 := []float64{5}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if res := NelderMead(quadratic, x0, NMOptions{MaxIter: 1000, Ctx: ctx}); res.Iters != 0 || res.X == nil {
		t.Errorf("NelderMead under cancelled ctx: %+v", res)
	}
	if res := Adam(quadGrad, x0, AdamOptions{MaxIter: 1000, Ctx: ctx}); res.Evals != 0 || res.X == nil {
		t.Errorf("Adam under cancelled ctx: %+v", res)
	}

	// Cancellation landing mid-run: cancel from inside the objective
	// after a fixed number of evaluations, deterministically.
	ctx2, cancel2 := context.WithCancel(context.Background())
	evals := 0
	counting := func(x, g []float64) float64 {
		evals++
		if evals == 7 {
			cancel2()
		}
		return quadGrad(x, g)
	}
	res := Adam(counting, x0, AdamOptions{MaxIter: 1000, Ctx: ctx2})
	if res.Evals != 7 {
		t.Errorf("Adam stopped after %d evals, want 7 (cancelled on the 7th)", res.Evals)
	}
	if res.Converged {
		t.Error("cancelled run reported Converged")
	}
}
