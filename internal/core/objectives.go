package core

import (
	"fmt"
	"math"
	"sync"

	"qokit/internal/costvec"
)

// Variance returns Var(Ĉ) = ⟨Ĉ²⟩ − ⟨Ĉ⟩² over the evolved state (the
// value EvalOutputs reports), computed from the cached diagonal with a
// weighted Welford pass: one accumulation per nonzero probability, no
// catastrophic ⟨Ĉ²⟩ − ⟨Ĉ⟩² cancellation. The pass walks the stored
// amplitudes; on a group state each carries p = 2^h·|ψ_i|², the mass of
// its 2^h basis states, which share its cost. The distributed engine
// runs the same recurrence per shard and merges the (weight, mean, M2)
// triples, so the two paths agree to rounding. The variance is the
// standard diagnostic for parameter-optimization landscapes (it
// vanishes exactly on eigenstates, so small variance near a low
// expectation signals concentration on good solutions).
func (r *Result) Variance() float64 {
	s := r.sim
	weight := s.weight()
	var w, mean, m2 float64
	for i := 0; i < s.stored(); i++ {
		p := weight * r.prob(i)
		if p == 0 {
			continue
		}
		c := s.diag[i]
		w += p
		delta := c - mean
		mean += delta * p / w
		m2 += p * delta * (c - mean)
	}
	if w == 0 {
		return 0
	}
	return m2 / w
}

// CVaR returns the Conditional Value at Risk objective at level
// α ∈ (0, 1]: the expected cost over the best (lowest-cost) α-fraction
// of the measurement distribution. CVaR(1) equals the plain
// expectation; small α rewards states whose low-cost tail is heavy —
// the standard trick for making QAOA optimization target the solution
// quality a sampler would actually deliver. The per-call cost is one
// walk of the stored amplitudes along the diagonal's precomputed sort
// order, which the simulator builds lazily on first use and caches
// (one more reuse of the §III-A precomputation idea). On a group state
// each stored amplitude carries the probability of its 2^h basis
// states, which share its cost.
func (r *Result) CVaR(alpha float64) (float64, error) {
	if alpha <= 0 || alpha > 1 {
		return 0, fmt.Errorf("core: CVaR level %v outside (0,1]", alpha)
	}
	s := r.sim
	weight := s.weight()
	remaining := alpha
	var acc float64
	last := math.NaN() // largest positive-probability cost visited
	for _, i := range s.costOrder() {
		p := weight * r.prob(i)
		if p <= 0 {
			continue
		}
		last = s.diag[i]
		if p >= remaining {
			acc += remaining * s.diag[i]
			remaining = 0
			break
		}
		acc += p * s.diag[i]
		remaining -= p
	}
	// remaining > 0 can only stem from normalization rounding; treat
	// the shortfall as mass at the largest visited cost. order's tail
	// may hold zero-probability states the loop skipped (e.g. the
	// infeasible subspace under an xy mixer), so the charge uses the
	// last cost actually visited, not order[len(order)-1].
	if remaining > 1e-12 && !math.IsNaN(last) {
		acc += remaining * last
	}
	return acc / alpha, nil
}

// costOrderCache lazily holds the ascending-cost order of the stored
// indices; the sync.Once guard keeps the first build safe when
// concurrent Results on one Simulator hit CVaR simultaneously.
type costOrderCache struct {
	once  sync.Once
	order []int
}

// costOrder returns (building and caching on first use) the stored
// indices by ascending cost, ties by index: a counting sort by level
// code when the simulator holds codes (costvec.Ascending, which
// distsim's ranks share).
func (s *Simulator) costOrder() []int {
	c := &s.costCache
	c.once.Do(func() { c.order = costvec.Ascending(s.diag[:s.stored()], s.levels) })
	return c.order
}
