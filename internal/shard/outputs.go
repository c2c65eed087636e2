package shard

import (
	"math"
	"math/bits"

	"qokit/internal/evaluator"
	"qokit/internal/statevec"
)

// Reset sets ψ to the rank's slice of the initial state: a caller's
// vector, the Dicke state |D^n_hw⟩ for the xy mixers (the entries whose
// index has Hamming weight hw), or the uniform superposition, whose one
// amplitude 1/√2^n a group state stores too.
func (s *State[T]) Reset() {
	cfg, re, im := &s.e.cfg, s.psi.Re, s.psi.Im
	off := s.cost.offset
	switch {
	case cfg.Initial != nil:
		for i := range re {
			a := cfg.Initial[off+uint64(i)]
			re[i], im[i] = T(real(a)), T(imag(a))
		}
	case cfg.XY:
		amp := T(1 / math.Sqrt(float64(binomial(cfg.N, cfg.HammingWeight))))
		for i := range re {
			re[i], im[i] = 0, 0
			if bits.OnesCount64(off+uint64(i)) == cfg.HammingWeight {
				re[i] = amp
			}
		}
	default:
		amp := T(1 / math.Sqrt(float64(uint64(1)<<uint(cfg.N))))
		for i := range re {
			re[i], im[i] = amp, 0
		}
	}
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

// View is the output stage's view of ψ. Each stored amplitude of a
// group state stands for the 2^h members of its orbit, which share its
// cost and its probability.
func (s *State[T]) View() evaluator.View {
	cfg := &s.e.cfg
	return evaluator.View{
		Amplitudes:    s,
		N:             cfg.N,
		Offset:        s.cost.offset,
		Len:           s.e.size,
		Group:         cfg.Sym.Group,
		Restrict:      cfg.XY && cfg.Initial == nil,
		HammingWeight: cfg.HammingWeight,
	}
}

// Prob returns |ψ_i|² of local index i in float64 (evaluator.Amplitudes).
func (s *State[T]) Prob(i int) float64 {
	r, m := float64(s.psi.Re[i]), float64(s.psi.Im[i])
	return r*r + m*m
}

// Cost returns the cost of local index i.
func (s *State[T]) Cost(i int) float64 { return s.cost.value(i) }

// Ascending returns the local indices by ascending cost, built once per
// engine and rank.
func (s *State[T]) Ascending() []int { return s.e.Ascending(s.rank) }

// Vec returns the stored amplitudes as a complex128 vector.
func (s *State[T]) Vec() statevec.Vec {
	v := make(statevec.Vec, len(s.psi.Re))
	for i := range v {
		v[i] = complex(float64(s.psi.Re[i]), float64(s.psi.Im[i]))
	}
	return v
}

// Probabilities returns |ψ_x|² for every basis state of a single-rank
// state, in dst when it is large enough, expanded through the group
// on a group state. Without preserveState a full float64 state writes
// the probabilities over its real plane and returns it, saving a pass
// (the preserve_state=False mode of the paper's Listing 3); ψ is then
// no longer a state.
func (s *State[T]) Probabilities(dst []float64, preserveState bool) []float64 {
	re, im := s.psi.Re, s.psi.Im
	group := s.e.cfg.Sym.Group
	if r, ok := any(re).([]float64); ok && !preserveState && len(group) == 1 {
		m := any(im).([]float64)
		for i := range r {
			r[i] = r[i]*r[i] + m[i]*m[i]
		}
		return r
	}
	full := len(re) * len(group)
	if cap(dst) < full {
		dst = make([]float64, full)
	}
	dst = dst[:full]
	for i := range re {
		dst[i] = s.Prob(i)
	}
	if len(group) > 1 {
		evaluator.FillGroup(dst, group)
	}
	return dst
}

// NormSquared returns Σ|ψ_i|² over the stored amplitudes, accumulated
// in float64.
func (s *State[T]) NormSquared() float64 {
	re, im := s.psi.Re, s.psi.Im
	return s.e.cfg.Pool.Reduce(len(re), func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			r, m := float64(re[i]), float64(im[i])
			acc += r*r + m*m
		}
		return acc
	})
}

// ExpectationOf returns this rank's share of ⟨ψ|obs|ψ⟩ for a diagonal
// observable over all 2^n basis states, accumulated in float64.
func (s *State[T]) ExpectationOf(obs []float64) float64 {
	e := s.e
	if group := e.cfg.Sym.Group; len(group) > 1 {
		return expectGroup(e.cfg.Pool, s.psi, obs, s.cost.offset, group)
	}
	window := obs[s.cost.offset : s.cost.offset+uint64(e.size)]
	return statevec.ExpectationPlanes(e.cfg.Pool, s.psi.Re, s.psi.Im, statevec.Phase{Diag: window})
}

// Load sets each stored amplitude from at (see Shard).
func (s *State[T]) Load(at func(x uint64) (re, im float64)) {
	for i := range s.psi.Re {
		r, m := at(s.cost.offset + uint64(i))
		s.psi.Re[i], s.psi.Im[i] = T(r), T(m)
	}
}

// Store passes each stored amplitude to put (see Shard).
func (s *State[T]) Store(put func(x uint64, re, im float64)) {
	for i, r := range s.psi.Re {
		put(s.cost.offset+uint64(i), float64(r), float64(s.psi.Im[i]))
	}
}
