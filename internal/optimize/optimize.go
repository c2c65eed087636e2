// Package optimize provides the derivative-free local optimizers used
// to tune QAOA parameters — the outer loop of the paper's Fig. 1,
// whose repeated objective evaluations the precomputed diagonal
// accelerates. Nelder–Mead is the typical QOKit/SciPy default; TQAInit
// supplies the Trotterized-quantum-annealing linear-ramp initialization
// (the paper's Ref. [44]) that makes high-depth optimization tractable.
package optimize

import (
	"context"
	"fmt"
	"sort"
)

// ctxDone reports whether a per-call options context is cancelled; a
// nil context never is. Every optimizer loop in this package checks it
// once per iteration: on cancellation the loop stops and the best
// iterate found so far is returned (with Converged false), so a
// serving layer can abandon an optimization without losing the
// progress already paid for. Callers that must distinguish "budget
// exhausted" from "cancelled" check their context's Err afterwards.
func ctxDone(ctx context.Context) bool { return ctx != nil && ctx.Err() != nil }

// Func is an objective to minimize.
type Func func(x []float64) float64

// Counting wraps an objective and counts evaluations; read Calls after
// optimizing to know the evaluation budget consumed.
type Counting struct {
	F     Func
	Calls int
}

// Eval evaluates and counts.
func (c *Counting) Eval(x []float64) float64 {
	c.Calls++
	return c.F(x)
}

// NMOptions configures NelderMead. Zero values select the defaults
// noted per field.
type NMOptions struct {
	// MaxIter bounds simplex iterations (default 200·dim).
	MaxIter int
	// MaxEvals bounds objective evaluations (default unlimited).
	MaxEvals int
	// TolF stops when the simplex value spread falls below it
	// (default 1e-8).
	TolF float64
	// InitialStep sets the simplex edge length (default 0.1).
	InitialStep float64
	// Ctx, when non-nil, cancels the optimization: the loop stops at
	// the next iteration boundary and returns the best iterate so far.
	Ctx context.Context
}

// NMResult reports the optimum found.
type NMResult struct {
	X     []float64
	F     float64
	Evals int
	Iters int
	// Converged is true when TolF was reached before any budget.
	Converged bool
}

// NelderMead minimizes f from x0 with the standard downhill-simplex
// method (reflection 1, expansion 2, contraction ½, shrink ½).
func NelderMead(f Func, x0 []float64, opt NMOptions) NMResult {
	dim := len(x0)
	if dim == 0 {
		return NMResult{X: nil, F: f(nil), Evals: 1, Converged: true}
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 200 * dim
	}
	if opt.TolF <= 0 {
		opt.TolF = 1e-8
	}
	if opt.InitialStep == 0 {
		opt.InitialStep = 0.1
	}
	cf := &Counting{F: f}
	budget := func() bool { return opt.MaxEvals > 0 && cf.Calls >= opt.MaxEvals }

	type vertex struct {
		x []float64
		f float64
	}
	simplex := make([]vertex, dim+1)
	simplex[0] = vertex{x: append([]float64(nil), x0...)}
	simplex[0].f = cf.Eval(simplex[0].x)
	for i := 1; i <= dim; i++ {
		x := append([]float64(nil), x0...)
		x[i-1] += opt.InitialStep
		simplex[i] = vertex{x: x, f: cf.Eval(x)}
	}
	sortSimplex := func() {
		sort.SliceStable(simplex, func(a, b int) bool { return simplex[a].f < simplex[b].f })
	}
	centroid := make([]float64, dim)
	point := func(coef float64) ([]float64, float64) {
		x := make([]float64, dim)
		worst := simplex[dim].x
		for j := 0; j < dim; j++ {
			x[j] = centroid[j] + coef*(centroid[j]-worst[j])
		}
		return x, cf.Eval(x)
	}

	res := NMResult{}
	for iter := 0; iter < opt.MaxIter; iter++ {
		sortSimplex()
		if simplex[dim].f-simplex[0].f < opt.TolF {
			res.Converged = true
			break
		}
		if budget() || ctxDone(opt.Ctx) {
			break
		}
		res.Iters++
		for j := 0; j < dim; j++ {
			centroid[j] = 0
			for i := 0; i < dim; i++ {
				centroid[j] += simplex[i].x[j]
			}
			centroid[j] /= float64(dim)
		}
		xr, fr := point(1) // reflection
		switch {
		case fr < simplex[0].f:
			if budget() {
				simplex[dim] = vertex{xr, fr}
				break
			}
			xe, fe := point(2) // expansion
			if fe < fr {
				simplex[dim] = vertex{xe, fe}
			} else {
				simplex[dim] = vertex{xr, fr}
			}
		case fr < simplex[dim-1].f:
			simplex[dim] = vertex{xr, fr}
		default:
			if budget() {
				break
			}
			xc, fc := point(-0.5) // inside contraction
			if fc < simplex[dim].f {
				simplex[dim] = vertex{xc, fc}
			} else {
				// shrink toward the best vertex
				for i := 1; i <= dim; i++ {
					if budget() {
						break
					}
					for j := 0; j < dim; j++ {
						simplex[i].x[j] = simplex[0].x[j] + 0.5*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].f = cf.Eval(simplex[i].x)
				}
			}
		}
		if budget() {
			break
		}
	}
	sortSimplex()
	res.X = simplex[0].x
	res.F = simplex[0].f
	res.Evals = cf.Calls
	return res
}

// TQAInit returns the Trotterized-quantum-annealing linear-ramp
// initialization for p QAOA layers with time step dt:
//
//	γ_l = (l+½)/p · dt,   β_l = (1 − (l+½)/p) · dt,  l = 0…p−1.
//
// This schedule (Sack & Serbyn, the paper's Ref. [44]) is the standard
// high-depth QAOA starting point; dt ≈ 0.75 works well for the
// problems in this repository.
func TQAInit(p int, dt float64) (gamma, beta []float64) {
	gamma = make([]float64, p)
	beta = make([]float64, p)
	for l := 0; l < p; l++ {
		frac := (float64(l) + 0.5) / float64(p)
		gamma[l] = frac * dt
		beta[l] = (1 - frac) * dt
	}
	return gamma, beta
}

// SplitAngles splits a flat optimizer vector [γ₀…γ_{p−1}, β₀…β_{p−1}]
// into its two halves; it panics on odd lengths.
func SplitAngles(x []float64) (gamma, beta []float64) {
	if len(x)%2 != 0 {
		panic(fmt.Sprintf("optimize: angle vector length %d is odd", len(x)))
	}
	p := len(x) / 2
	return x[:p], x[p : 2*p]
}

// JoinAngles concatenates γ and β into the flat optimizer vector.
func JoinAngles(gamma, beta []float64) []float64 {
	out := make([]float64, 0, len(gamma)+len(beta))
	out = append(out, gamma...)
	out = append(out, beta...)
	return out
}

// Grid builds the p = 1 cartesian product of γ and β values as flat
// [γ, β] vectors in row-major order (β varies fastest): the landscape
// scans of the paper's Figs. 3–4. Index a point as xs[i*len(betas)+j]
// for (gammas[i], betas[j]).
func Grid(gammas, betas []float64) [][]float64 {
	xs := make([][]float64, 0, len(gammas)*len(betas))
	for _, g := range gammas {
		for _, b := range betas {
			xs = append(xs, []float64{g, b})
		}
	}
	return xs
}

// ArgMinEnergies returns the index of the lowest energy (−1 for an
// empty slice): the reduction every landscape scan and multi-start
// schedule ends with.
func ArgMinEnergies(energies []float64) int {
	best := -1
	for i, e := range energies {
		if best < 0 || e < energies[best] {
			best = i
		}
	}
	return best
}
