// Package classical provides the classical heuristic solvers that the
// QAOA results are measured against. The paper's headline application
// (§I, §VII and its companion Ref. [6]) is a scaling analysis showing
// QAOA's time-to-solution on LABS growing more slowly than that of
// state-of-the-art classical heuristics; this package supplies the
// classical side — simulated annealing over single-bit flip
// neighborhoods — with the O(n) incremental LABS energy updates that
// make long classical runs cheap.
package classical

import (
	"fmt"
	"math"
	"math/rand"

	"qokit/internal/problems"
)

// Walker is a local-search state over n-bit strings: it exposes the
// current assignment and energy, a cheap single-flip delta, and the
// flip itself. Implementations keep whatever incremental state they
// need (autocorrelations for LABS).
type Walker interface {
	N() int
	State() uint64
	Energy() float64
	// FlipDelta returns Energy(after flipping bit i) − Energy(now)
	// without changing the state.
	FlipDelta(i int) float64
	// Flip applies the bit flip and updates the incremental state.
	Flip(i int)
}

// ---------------------------------------------------------------- LABS

// LABSWalker is a Walker over LABS sequences with cached
// autocorrelations: FlipDelta and Flip cost O(n) instead of the O(n²)
// full energy evaluation.
type LABSWalker struct {
	n int
	x uint64
	s []int // spins ±1
	c []int // c[k] = C_k, k = 1..n−1
	e int
}

// NewLABSWalker starts at assignment x.
func NewLABSWalker(n int, x uint64) *LABSWalker {
	w := &LABSWalker{n: n, x: x, s: make([]int, n), c: make([]int, n)}
	for i := 0; i < n; i++ {
		if x>>uint(i)&1 == 1 {
			w.s[i] = -1
		} else {
			w.s[i] = 1
		}
	}
	for k := 1; k < n; k++ {
		w.c[k] = problems.Autocorrelation(x, n, k)
		w.e += w.c[k] * w.c[k]
	}
	return w
}

// N returns the sequence length.
func (w *LABSWalker) N() int { return w.n }

// State returns the current assignment.
func (w *LABSWalker) State() uint64 { return w.x }

// Energy returns the current sidelobe energy.
func (w *LABSWalker) Energy() float64 { return float64(w.e) }

// deltaCk computes the change of C_k if bit i flips: the products
// s_{i−k}s_i and s_i s_{i+k} each negate, contributing −2·s_i·s_{i±k}.
func (w *LABSWalker) deltaCk(i, k int) int {
	d := 0
	if i-k >= 0 {
		d -= 2 * w.s[i-k] * w.s[i]
	}
	if i+k < w.n {
		d -= 2 * w.s[i] * w.s[i+k]
	}
	return d
}

// FlipDelta returns the energy change of flipping bit i in O(n).
func (w *LABSWalker) FlipDelta(i int) float64 {
	delta := 0
	for k := 1; k < w.n; k++ {
		d := w.deltaCk(i, k)
		if d != 0 {
			delta += d * (2*w.c[k] + d)
		}
	}
	return float64(delta)
}

// Flip applies the flip, updating autocorrelations and energy in O(n).
func (w *LABSWalker) Flip(i int) {
	for k := 1; k < w.n; k++ {
		d := w.deltaCk(i, k)
		if d != 0 {
			w.e += d * (2*w.c[k] + d)
			w.c[k] += d
		}
	}
	w.s[i] = -w.s[i]
	w.x ^= 1 << uint(i)
}

// ------------------------------------------------------------- solvers

// SAOptions configures simulated annealing. Zero values select the
// defaults noted per field.
type SAOptions struct {
	// Steps is the number of proposed flips (default 10000·n).
	Steps int
	// T0 and T1 are the start and end temperatures of a geometric
	// schedule (defaults 2.0 and 0.05, suited to integer-scale costs).
	T0, T1 float64
	// Seed makes the run deterministic.
	Seed int64
	// Target stops the run as soon as the energy reaches it, when
	// UseTarget is set; StepsToTarget reports when.
	Target    float64
	UseTarget bool
}

// SAResult reports a simulated-annealing run.
type SAResult struct {
	Best       uint64
	BestEnergy float64
	// StepsToTarget is the first step at which Target was reached
	// (−1 if never, or if no target was set).
	StepsToTarget int
	Steps         int
}

// SimulatedAnnealing minimizes the walker's energy with Metropolis
// acceptance under a geometric temperature schedule.
func SimulatedAnnealing(w Walker, opt SAOptions) SAResult {
	n := w.N()
	if opt.Steps <= 0 {
		opt.Steps = 10000 * n
	}
	if opt.T0 <= 0 {
		opt.T0 = 2.0
	}
	if opt.T1 <= 0 {
		opt.T1 = 0.05
	}
	hasTarget := opt.UseTarget
	rng := rand.New(rand.NewSource(opt.Seed))
	cool := math.Pow(opt.T1/opt.T0, 1/float64(opt.Steps))

	res := SAResult{Best: w.State(), BestEnergy: w.Energy(), StepsToTarget: -1, Steps: opt.Steps}
	if hasTarget && res.BestEnergy <= opt.Target {
		res.StepsToTarget = 0
		return res
	}
	temp := opt.T0
	for step := 1; step <= opt.Steps; step++ {
		i := rng.Intn(n)
		delta := w.FlipDelta(i)
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			w.Flip(i)
			if e := w.Energy(); e < res.BestEnergy {
				res.BestEnergy = e
				res.Best = w.State()
				if hasTarget && e <= opt.Target {
					res.StepsToTarget = step
					return res
				}
			}
		}
		temp *= cool
	}
	return res
}

// StepsToOptimum runs restarts of simulated annealing from random
// starts until the known optimal energy is reached, returning the
// total number of flip proposals consumed — the classical
// time-to-solution metric of the scaling analysis. It fails after
// maxRestarts restarts.
func StepsToOptimum(mk func(x uint64) Walker, n int, optimum float64, stepsPerRun int, seed int64, maxRestarts int) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for r := 0; r < maxRestarts; r++ {
		start := rng.Uint64() & (1<<uint(n) - 1)
		w := mk(start)
		res := SimulatedAnnealing(w, SAOptions{
			Steps:     stepsPerRun,
			Seed:      rng.Int63(),
			Target:    optimum,
			UseTarget: true,
		})
		if res.StepsToTarget >= 0 {
			return total + res.StepsToTarget, nil
		}
		total += res.Steps
	}
	return 0, fmt.Errorf("classical: optimum %v not reached in %d restarts × %d steps", optimum, maxRestarts, stepsPerRun)
}
