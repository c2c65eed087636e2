package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Variance returns Var(Ĉ) = ⟨Ĉ²⟩ − ⟨Ĉ⟩² over the evolved state,
// computed from the cached diagonal by the same Welford pass as
// EvalOutputs (costVariance), so the two agree bit for bit and neither
// suffers the cancellation of ⟨Ĉ²⟩ − ⟨Ĉ⟩². The variance is the
// standard diagnostic for parameter-optimization landscapes (it
// vanishes exactly on eigenstates, so small variance near a low
// expectation signals concentration on good solutions).
func (r *Result) Variance() float64 {
	return costVariance(r.Probabilities(nil, true), r.sim.diag)
}

// CVaR returns the Conditional Value at Risk objective at level
// α ∈ (0, 1]: the expected cost over the best (lowest-cost) α-fraction
// of the measurement distribution. CVaR(1) equals the plain
// expectation; small α rewards states whose low-cost tail is heavy —
// the standard trick for making QAOA optimization target the solution
// quality a sampler would actually deliver. The per-call cost is one
// pass over the diagonal's precomputed sort order, which the simulator
// builds lazily on first use and caches (one more reuse of the §III-A
// precomputation idea).
func (r *Result) CVaR(alpha float64) (float64, error) {
	if alpha <= 0 || alpha > 1 {
		return 0, fmt.Errorf("core: CVaR level %v outside (0,1]", alpha)
	}
	s := r.sim
	order := s.costOrder()
	probs := r.Probabilities(nil, true)
	remaining := alpha
	var acc float64
	last := math.NaN() // largest positive-probability cost visited
	for _, x := range order {
		p := probs[x]
		if p <= 0 {
			continue
		}
		last = s.diag[x]
		if p >= remaining {
			acc += remaining * s.diag[x]
			remaining = 0
			break
		}
		acc += p * s.diag[x]
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

// costOrderCache lazily holds the ascending-cost basis order; the
// sync.Once guard keeps the first build safe when concurrent Results
// on one Simulator hit CVaR simultaneously.
type costOrderCache struct {
	once  sync.Once
	order []uint64
}

// costOrder returns (building and caching on first use) the basis
// states sorted by ascending cost.
func (s *Simulator) costOrder() []uint64 {
	c := &s.costCache
	c.once.Do(func() {
		order := make([]uint64, len(s.diag))
		for i := range order {
			order[i] = uint64(i)
		}
		sort.Slice(order, func(a, b int) bool { return s.diag[order[a]] < s.diag[order[b]] })
		c.order = order
	})
	return c.order
}
