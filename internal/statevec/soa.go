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

// ApplyRX applies e^{−iβX} on qubit q with pure real arithmetic:
//
//	re1' =  c·re1 + s·im2    im1' = c·im1 − s·re2
//	re2' =  c·re2 + s·im1    im2' = c·im2 − s·re1
//
// (c = cos β, s = sin β), which is [[c, −is], [−is, c]] expanded.
func (s *SoA) ApplyRX(p *Pool, q int, beta float64) {
	n := s.NumQubits()
	if q < 0 || q >= n {
		panic(fmt.Sprintf("statevec: qubit %d out of range for n=%d", q, n))
	}
	sn, cs := math.Sincos(beta)
	stride := 1 << uint(q)
	mask := stride - 1
	re, im := s.Re, s.Im
	p.Run(len(re)/2, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			l1 := (t>>uint(q))<<uint(q+1) | (t & mask)
			l2 := l1 + stride
			r1, i1 := re[l1], im[l1]
			r2, i2 := re[l2], im[l2]
			re[l1] = cs*r1 + sn*i2
			im[l1] = cs*i1 - sn*r2
			re[l2] = cs*r2 + sn*i1
			im[l2] = cs*i2 - sn*r1
		}
	})
}

// ApplyUniformRX sweeps ApplyRX over all qubits (Algorithm 2).
func (s *SoA) ApplyUniformRX(p *Pool, beta float64) {
	n := s.NumQubits()
	for q := 0; q < n; q++ {
		s.ApplyRX(p, q, beta)
	}
}

// ApplyXY applies e^{−iβ(XX+YY)/2} on the pair (i, j); the rotated
// amplitude pair update is identical in form to ApplyRX.
func (s *SoA) ApplyXY(p *Pool, i, j int, beta float64) {
	if i == j {
		panic("statevec: ApplyXY requires distinct qubits")
	}
	n := s.NumQubits()
	if i < 0 || i >= n || j < 0 || j >= n {
		panic(fmt.Sprintf("statevec: ApplyXY qubits (%d,%d) out of range for n=%d", i, j, n))
	}
	sn, cs := math.Sincos(beta)
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	maskI, maskJ := 1<<uint(i), 1<<uint(j)
	re, im := s.Re, s.Im
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
	if len(s.Re) != len(diag) {
		panic(fmt.Sprintf("statevec: ExpectationDiag length mismatch %d vs %d", len(s.Re), len(diag)))
	}
	re, im := s.Re, s.Im
	return p.Reduce(len(re), func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			acc += diag[i] * (re[i]*re[i] + im[i]*im[i])
		}
		return acc
	})
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
