package optimize

import (
	"context"
	"math"
)

// FuncGrad is a value-and-gradient objective: it returns f(x) and
// writes ∇f(x) into grad (len(grad) == len(x)). The evaluation
// service's adjoint objective (serve.Service.GradObjective) produces
// these for QAOA parameters at ≈ 4 simulations' cost regardless of
// dimension, which is what makes Adam below asymptotically cheaper
// than Nelder–Mead at high depth.
type FuncGrad func(x, grad []float64) float64

// CountingGrad wraps a FuncGrad and counts evaluations; read Calls
// after optimizing to know the evaluation budget consumed. One call
// yields both the value and the full gradient.
type CountingGrad struct {
	F     FuncGrad
	Calls int
}

// Eval evaluates and counts.
func (c *CountingGrad) Eval(x, grad []float64) float64 {
	c.Calls++
	return c.F(x, grad)
}

// AdamOptions configures Adam. Zero values select the defaults noted
// per field.
type AdamOptions struct {
	// MaxIter bounds iterations, one gradient evaluation each
	// (default 200).
	MaxIter int
	// Step is the learning rate α (default 0.05 — sized for QAOA
	// angle landscapes, whose curvature is O(1) in radians).
	Step float64
	// Beta1 and Beta2 are the first/second-moment decay rates
	// (defaults 0.9 and 0.999).
	Beta1, Beta2 float64
	// Eps regularizes the second-moment denominator (default 1e-8).
	Eps float64
	// TolGrad stops when ‖∇f‖∞ falls below it (default 1e-6).
	TolGrad float64
	// Ctx, when non-nil, cancels the optimization: the loop stops at
	// the next iteration boundary and returns the best iterate so far.
	Ctx context.Context
	// Resume, when non-nil, restores a previous run's complete
	// optimizer state (iterate, moments, bias corrections, iteration
	// and evaluation counts, best-so-far) and continues from it. Adam
	// is deterministic, so a run checkpointed at iteration k and
	// resumed is bit-identical to one that never stopped.
	Resume *AdamState
	// Checkpoint, when non-nil, is called after every completed
	// iteration with a snapshot that fully determines the remaining
	// trajectory. The snapshot's slices are freshly allocated — the
	// callback may retain or serialize them. A non-nil return stops
	// the run and surfaces through AdamResult.Err (a failing objective
	// uses this to halt instead of iterating on garbage).
	Checkpoint func(*AdamState) error
}

// AdamResult reports the optimum found.
type AdamResult struct {
	// X and F are the best iterate seen, not necessarily the last
	// (Adam is not a descent method; late iterates can overshoot).
	X     []float64
	F     float64
	Evals int
	Iters int
	// Converged is true when TolGrad was reached before MaxIter.
	Converged bool
	// Err is non-nil when the run stopped early on a Checkpoint
	// callback error or an invalid Resume state; X/F still report the
	// best iterate seen before the stop.
	Err error
}

// Adam minimizes f with the Adam update (Kingma & Ba, arXiv:1412.6980)
// — the default gradient optimizer for adjoint-differentiated QAOA:
// robust to the ill-conditioned, oscillatory high-depth landscapes
// where plain gradient descent needs hand-tuned steps.
func Adam(f FuncGrad, x0 []float64, opt AdamOptions) AdamResult {
	dim := len(x0)
	if opt.MaxIter <= 0 {
		opt.MaxIter = 200
	}
	if opt.Step == 0 {
		opt.Step = 0.05
	}
	if opt.Beta1 == 0 {
		opt.Beta1 = 0.9
	}
	if opt.Beta2 == 0 {
		opt.Beta2 = 0.999
	}
	if opt.Eps == 0 {
		opt.Eps = 1e-8
	}
	if opt.TolGrad == 0 {
		opt.TolGrad = 1e-6
	}
	cf := &CountingGrad{F: f}
	x := append([]float64(nil), x0...)
	g := make([]float64, dim)
	m := make([]float64, dim)
	v := make([]float64, dim)
	res := AdamResult{X: append([]float64(nil), x0...), F: math.Inf(1)}
	b1t, b2t := 1.0, 1.0
	start := 0
	if st := opt.Resume; st != nil {
		if err := st.validate(dim); err != nil {
			res.Err = err
			return res
		}
		copy(x, st.X)
		copy(m, st.M)
		copy(v, st.V)
		b1t, b2t = st.B1t, st.B2t
		start = st.Iter
		cf.Calls = st.Evals
		res.Iters = st.Iter
		res.F = st.BestF
		copy(res.X, st.BestX)
	}
	for k := start; k < opt.MaxIter; k++ {
		if ctxDone(opt.Ctx) {
			break
		}
		fx := cf.Eval(x, g)
		res.Iters++
		if fx < res.F {
			res.F = fx
			copy(res.X, x)
		}
		if normInf(g) < opt.TolGrad {
			res.Converged = true
			break
		}
		b1t *= opt.Beta1
		b2t *= opt.Beta2
		for j := 0; j < dim; j++ {
			m[j] = opt.Beta1*m[j] + (1-opt.Beta1)*g[j]
			v[j] = opt.Beta2*v[j] + (1-opt.Beta2)*g[j]*g[j]
			mhat := m[j] / (1 - b1t)
			vhat := v[j] / (1 - b2t)
			x[j] -= opt.Step * mhat / (math.Sqrt(vhat) + opt.Eps)
		}
		if opt.Checkpoint != nil {
			st := &AdamState{
				X:     append([]float64(nil), x...),
				M:     append([]float64(nil), m...),
				V:     append([]float64(nil), v...),
				B1t:   b1t,
				B2t:   b2t,
				Iter:  k + 1,
				BestX: append([]float64(nil), res.X...),
				BestF: res.F,
				Evals: cf.Calls,
			}
			if err := opt.Checkpoint(st); err != nil {
				res.Err = err
				break
			}
		}
	}
	res.Evals = cf.Calls
	return res
}

func normInf(g []float64) float64 {
	var m float64
	for _, v := range g {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
