package core

import (
	"math/bits"

	"qokit/internal/evaluator"
)

// A Result's measurement-style outputs (Overlap, CVaR, Variance, and
// through EvalOutputs the most probable state, probability queries and
// shots) come from the output stage the distributed engine also runs
// (evaluator.Stage and View), here over the whole stored state as a
// single rank: evaluator.OneRank's reductions return their argument.
// The stage walks the 2^(n−h) stored amplitudes and never expands a
// group state; each stored amplitude stands for its 2^h basis states,
// which share its cost and its probability.

// view returns the output stage's view of r's stored amplitudes: the
// shard's, or on Serial the full vector's.
func (r *Result) view() evaluator.View {
	if r.st != nil {
		return r.st.View()
	}
	s := r.sim
	return evaluator.View{
		Amplitudes:    (*serialAmplitudes)(r),
		N:             s.n,
		Len:           len(r.vec),
		Group:         s.group(),
		Restrict:      s.restrict(),
		HammingWeight: s.hammingWeight(),
	}
}

// serialAmplitudes is a Serial Result as the output stage reads it.
type serialAmplitudes Result

// Prob returns |ψ_i|² of amplitude i.
func (a *serialAmplitudes) Prob(i int) float64 {
	v := a.vec[i]
	return real(v)*real(v) + imag(v)*imag(v)
}

func (a *serialAmplitudes) Cost(i int) float64 { return a.sim.serial.diag[i] }

func (a *serialAmplitudes) Ascending() []int { return a.sim.eng.Ascending(0) }

// restrict reports whether the dynamics stays in the fixed-Hamming-
// weight subspace of the xy mixers' Dicke start, which the ground-state
// search is then limited to.
func (s *Simulator) restrict() bool { return s.opts.Mixer != MixerX && s.opts.InitialState == nil }

// hammingWeight returns the Dicke-state weight of the xy mixers.
func (s *Simulator) hammingWeight() int {
	if k := s.opts.HammingWeight; k > 0 {
		return k
	}
	return s.n / 2
}

// feasible reports whether basis state x lies in the searched subspace.
func (s *Simulator) feasible(x int) bool {
	return !s.restrict() || bits.OnesCount(uint(x)) == s.hammingWeight()
}

// Overlap returns the probability of measuring an optimal solution:
// Σ_{x∈argmin} |ψ_x|² (QOKit's get_overlap), over the feasible
// subspace for the xy mixers.
func (r *Result) Overlap() float64 {
	_, overlap, _ := r.view().Ground(evaluator.OneRank{})
	return overlap
}

// Variance returns Var(Ĉ) = ⟨Ĉ²⟩ − ⟨Ĉ⟩² over the evolved state, the value
// EvalOutputs reports, by a weighted Welford pass over the stored
// amplitudes (no ⟨Ĉ²⟩ − ⟨Ĉ⟩² cancellation); it allocates nothing. The
// variance vanishes on eigenstates, so a small variance near a low
// expectation signals concentration on good solutions.
func (r *Result) Variance() float64 {
	v, _ := r.view().Variance(evaluator.OneRank{})
	return v
}

// CVaR returns the Conditional Value at Risk objective at level
// α ∈ (0, 1]: the expected cost over the best (lowest-cost) α-fraction
// of the measurement distribution (evaluator.View.CVaR). CVaR(1) equals
// the expectation. A level outside (0, 1], NaN included, returns an
// error. The stage reads the costs along the diagonal's ascending
// order, which the simulator builds on first use and caches (one more
// reuse of the §III-A precomputation).
func (r *Result) CVaR(alpha float64) (float64, error) {
	cvar, err := r.view().CVaR(evaluator.OneRank{}, []float64{alpha})
	if err != nil {
		return 0, err
	}
	return cvar[0], nil
}
