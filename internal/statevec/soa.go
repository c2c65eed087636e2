package statevec

import (
	"fmt"
	"math"
)

// SoA is the structure-of-arrays state representation: amplitudes as
// separate real and imaginary float64 slices. Splitting the layout
// lets the mixer kernel use only real multiply–adds with unit-stride
// loads, the same reason the paper's cuStateVec backend beats the
// straightforward kernels by ≈2× (§V-A). The SoA simulator keeps the
// state in this form for the whole QAOA evolution and converts at the
// API boundary only.
type SoA struct {
	Re, Im []float64
}

// NewSoA allocates the zero state (all amplitudes 0) for n qubits in
// SoA form — a reusable buffer for SetFromVec-style workflows.
func NewSoA(n int) *SoA {
	checkQubits(n)
	size := 1 << uint(n)
	return &SoA{Re: make([]float64, size), Im: make([]float64, size)}
}

// NewSoAUniform returns |+⟩^⊗n in SoA form.
func NewSoAUniform(n int) *SoA {
	checkQubits(n)
	size := 1 << uint(n)
	s := &SoA{Re: make([]float64, size), Im: make([]float64, size)}
	amp := 1 / math.Sqrt(float64(size))
	for i := range s.Re {
		s.Re[i] = amp
	}
	return s
}

// SoAFromVec converts a complex128 vector into SoA form.
func SoAFromVec(v Vec) *SoA {
	s := &SoA{Re: make([]float64, len(v)), Im: make([]float64, len(v))}
	for i, a := range v {
		s.Re[i] = real(a)
		s.Im[i] = imag(a)
	}
	return s
}

// SetFromVec overwrites the state with v without allocating — the
// buffer-reuse path batch evaluation depends on (each worker resets
// its state to the initial vector instead of building a fresh SoA per
// parameter point). It panics on length mismatch.
func (s *SoA) SetFromVec(v Vec) {
	if len(s.Re) != len(v) {
		panic(fmt.Sprintf("statevec: SetFromVec length mismatch %d vs %d", len(s.Re), len(v)))
	}
	for i, a := range v {
		s.Re[i] = real(a)
		s.Im[i] = imag(a)
	}
}

// ToVec converts back to the interleaved complex128 representation.
func (s *SoA) ToVec() Vec {
	v := make(Vec, len(s.Re))
	for i := range v {
		v[i] = complex(s.Re[i], s.Im[i])
	}
	return v
}

// Len returns the number of amplitudes.
func (s *SoA) Len() int { return len(s.Re) }

// NumQubits returns n for a 2^n-length state.
func (s *SoA) NumQubits() int { return numQubits(len(s.Re)) }

// ApplyRX applies e^{−iβX} on qubit q with pure real arithmetic (see
// rxRange): one full pass over the state, Algorithm 1 on split planes.
func (s *SoA) ApplyRX(p *Pool, q int, beta float64) { applyRXPlanes(p, s.Re, s.Im, q, beta) }

// applyRXPlanes is the per-qubit RX pass on split planes.
func applyRXPlanes[T Float](p *Pool, re, im []T, q int, beta float64) {
	if n := numQubits(len(re)); q < 0 || q >= n {
		panic(fmt.Sprintf("statevec: qubit %d out of range for n=%d", q, n))
	}
	sn, cs := math.Sincos(beta)
	p.Run(len(re)/2, func(lo, hi int) { rxRange(re, im, q, T(cs), T(sn), lo, hi) })
}

// ApplyXY applies e^{−iβ(XX+YY)/2} on the pair (i, j); the rotated
// amplitude pair update is identical in form to ApplyRX.
func (s *SoA) ApplyXY(p *Pool, i, j int, beta float64) { ApplyXYPlanes(p, s.Re, s.Im, i, j, beta) }

// ApplyXYPlanes applies e^{−iβ(XX+YY)/2} on the pair (i, j) of split
// planes, the kernel behind SoA.ApplyXY and SoA32.ApplyXY.
func ApplyXYPlanes[T Float](p *Pool, re, im []T, i, j int, beta float64) {
	lo, hi := checkEdge("ApplyXY", numQubits(len(re)), i, j)
	sn64, cs64 := math.Sincos(beta)
	sn, cs := T(sn64), T(cs64)
	maskI, maskJ := 1<<uint(i), 1<<uint(j)
	p.Run(len(re)>>2, func(from, to int) {
		for t := from; t < to; t++ {
			base := expand2(t, lo, hi)
			xa := base | maskI
			xb := base | maskJ
			ra, ia := re[xa], im[xa]
			rb, ib := re[xb], im[xb]
			re[xa] = cs*ra + sn*ib
			im[xa] = cs*ia - sn*rb
			re[xb] = cs*rb + sn*ia
			im[xb] = cs*ib - sn*ra
		}
	})
}

// PhaseDiag multiplies amplitude x by e^{−iγ·diag_x} in place.
func (s *SoA) PhaseDiag(p *Pool, diag []float64, gamma float64) {
	s.ApplyPhase(p, Phase{Diag: diag, Gamma: gamma})
}

// ExpectationDiag returns Σ_x diag_x (re_x² + im_x²).
func (s *SoA) ExpectationDiag(p *Pool, diag []float64) float64 {
	return ExpectationPlanes(p, s.Re, s.Im, Phase{Diag: diag})
}

// NormSquared returns ‖ψ‖₂².
func (s *SoA) NormSquared(p *Pool) float64 {
	re, im := s.Re, s.Im
	return p.Reduce(len(re), func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			acc += re[i]*re[i] + im[i]*im[i]
		}
		return acc
	})
}

// Probabilities writes |ψ_x|² into dst.
func (s *SoA) Probabilities(dst []float64) []float64 {
	if cap(dst) < len(s.Re) {
		dst = make([]float64, len(s.Re))
	}
	dst = dst[:len(s.Re)]
	for i := range dst {
		dst[i] = s.Re[i]*s.Re[i] + s.Im[i]*s.Im[i]
	}
	return dst
}
