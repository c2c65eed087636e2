package statevec

import (
	"fmt"
	"math"
)

// SoA32 is the single-precision (complex64-equivalent) split-layout
// state: 8 bytes per amplitude instead of 16. The paper runs its own
// experiments in double precision but notes that its n = 31 simulation
// costs the same memory as n = 32 in single precision, and both of its
// GPU baselines (cuQuantum in Ref. [24], qsim in Ref. [36]) report
// single-precision numbers — this representation is what makes those
// comparisons possible and lets one more qubit fit in the same
// footprint. Rotation coefficients and all reductions are computed in
// float64; only the stored amplitudes are float32, so the error per
// layer is a few ULPs and the `qaoabench precision` experiment
// measures how it accumulates with depth.
type SoA32 struct {
	Re, Im []float32
}

// NewSoA32 allocates the zero state for n qubits in single precision —
// a reusable buffer for SetFromVec-style workflows.
func NewSoA32(n int) *SoA32 {
	checkQubits(n)
	size := 1 << uint(n)
	return &SoA32{Re: make([]float32, size), Im: make([]float32, size)}
}

// NewSoA32Uniform returns |+⟩^⊗n in single precision.
func NewSoA32Uniform(n int) *SoA32 {
	checkQubits(n)
	size := 1 << uint(n)
	s := &SoA32{Re: make([]float32, size), Im: make([]float32, size)}
	amp := float32(1 / math.Sqrt(float64(size)))
	for i := range s.Re {
		s.Re[i] = amp
	}
	return s
}

// SoA32FromVec converts a double-precision vector down to single.
func SoA32FromVec(v Vec) *SoA32 {
	s := &SoA32{Re: make([]float32, len(v)), Im: make([]float32, len(v))}
	for i, a := range v {
		s.Re[i] = float32(real(a))
		s.Im[i] = float32(imag(a))
	}
	return s
}

// SetFromVec overwrites the state with v (rounded to single
// precision) without allocating; it panics on length mismatch.
func (s *SoA32) SetFromVec(v Vec) {
	if len(s.Re) != len(v) {
		panic(fmt.Sprintf("statevec: SetFromVec length mismatch %d vs %d", len(s.Re), len(v)))
	}
	for i, a := range v {
		s.Re[i] = float32(real(a))
		s.Im[i] = float32(imag(a))
	}
}

// ToVec converts up to a double-precision complex128 vector.
func (s *SoA32) ToVec() Vec {
	v := make(Vec, len(s.Re))
	for i := range v {
		v[i] = complex(float64(s.Re[i]), float64(s.Im[i]))
	}
	return v
}

// Len returns the number of amplitudes.
func (s *SoA32) Len() int { return len(s.Re) }

// NumQubits returns n for a 2^n-length state.
func (s *SoA32) NumQubits() int { return numQubits(len(s.Re)) }

// MemoryBytes returns the store size: 8 bytes per amplitude, half of
// complex128.
func (s *SoA32) MemoryBytes() int { return 8 * len(s.Re) }

// ApplyRX applies e^{−iβX} on qubit q (same update as SoA.ApplyRX with
// float32 storage).
func (s *SoA32) ApplyRX(p *Pool, q int, beta float64) { applyRXPlanes(p, s.Re, s.Im, q, beta) }

// ApplyXY applies e^{−iβ(XX+YY)/2} on the pair (i, j).
func (s *SoA32) ApplyXY(p *Pool, i, j int, beta float64) { ApplyXYPlanes(p, s.Re, s.Im, i, j, beta) }

// PhaseDiag multiplies amplitude x by e^{−iγ·diag_x}; the phase
// factors are evaluated in double precision.
func (s *SoA32) PhaseDiag(p *Pool, diag []float64, gamma float64) {
	s.ApplyPhase(p, Phase{Diag: diag, Gamma: gamma})
}

// ExpectationDiag returns Σ_x diag_x|ψ_x|², accumulated in float64 so
// the reduction does not add single-precision error on top of the
// state's.
func (s *SoA32) ExpectationDiag(p *Pool, diag []float64) float64 {
	return ExpectationPlanes(p, s.Re, s.Im, Phase{Diag: diag})
}

// NormSquared returns ‖ψ‖₂² in float64.
func (s *SoA32) NormSquared(p *Pool) float64 {
	re, im := s.Re, s.Im
	return p.Reduce(len(re), func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			r, m := float64(re[i]), float64(im[i])
			acc += r*r + m*m
		}
		return acc
	})
}

// Probabilities writes |ψ_x|² into dst (float64 output for API
// compatibility with the double-precision backends).
func (s *SoA32) Probabilities(dst []float64) []float64 {
	if cap(dst) < len(s.Re) {
		dst = make([]float64, len(s.Re))
	}
	dst = dst[:len(s.Re)]
	for i := range dst {
		r, m := float64(s.Re[i]), float64(s.Im[i])
		dst[i] = r*r + m*m
	}
	return dst
}
