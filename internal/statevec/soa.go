package statevec

import (
	"math"
)

// SoA is the structure-of-arrays state representation: amplitudes as
// separate real and imaginary float64 slices. Splitting the layout
// lets the mixer kernel use only real multiply–adds with unit-stride
// loads, the same reason the paper's cuStateVec backend beats the
// straightforward kernels by ≈2× (§V-A). The simulators keep their
// states as split planes of either precision (internal/shard) and run
// the generic *Planes kernels on them; SoA is the float64 planes of a
// whole state for callers that time or shard the kernels directly.
type SoA struct {
	Re, Im []float64
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

// Len returns the number of amplitudes.
func (s *SoA) Len() int { return len(s.Re) }

// ApplyXYPlanes applies e^{−iβ(XX+YY)/2} on the pair (i, j) of split
// planes.
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
	ApplyPhasePlanes(p, s.Re, s.Im, Phase{Diag: diag, Gamma: gamma})
}
