package statevec

import (
	"fmt"
	"math"
)

// This file holds the two kernels of the half state. A state with
// ψ(x) = ψ(x̄) for the bitwise complement x̄ of every n-bit x can be
// stored over its 2^(n−1) representatives x < 2^(n−1), holding the
// full state's amplitude values. X_q with q < n−1 maps representatives
// to representatives, so the tiled kernels run on the half planes
// unchanged, as an (n−1)-qubit state. X_(n−1) maps i to i + 2^(n−1),
// whose representative is its complement 2^(n−1)−1−i: on the half
// state, qubit n−1's RX pairs amplitude i with its mirror 2^(n−1)−1−i.
// The pairs (i, mirror) with i < 2^(n−2) are disjoint, so chunks of
// that range run in parallel.

// ApplyMirrorRX applies RX(β) on qubit n−1 of the half state s: the
// pair update of ApplyRX with amplitude i paired with its mirror.
func (s *SoA) ApplyMirrorRX(p *Pool, beta float64) { mirrorRXPlanes(p, s.Re, s.Im, beta) }

// ApplyMirrorRX applies RX(β) on qubit n−1 of the single-precision
// half state s.
func (s *SoA32) ApplyMirrorRX(p *Pool, beta float64) { mirrorRXPlanes(p, s.Re, s.Im, beta) }

// ReverseMirrorRX is the adjoint reverse step of qubit n−1 on a half
// state pair, with s as the bra λ: it applies RX(−β) on the mirror
// pairs of λ and ψ and returns Im ⟨λ|X_(n−1)|ψ⟩ summed over the stored
// amplitudes, half the full state's value, accumulated in float64.
func (s *SoA) ReverseMirrorRX(p *Pool, psi *SoA, beta float64) float64 {
	return reverseMirrorRXPlanes(p, s.Re, s.Im, psi.Re, psi.Im, beta)
}

// ReverseMirrorRX is the single-precision mirror reverse step with s
// as λ.
func (s *SoA32) ReverseMirrorRX(p *Pool, psi *SoA32, beta float64) float64 {
	return reverseMirrorRXPlanes(p, s.Re, s.Im, psi.Re, psi.Im, beta)
}

// checkMirror panics unless a half state of size amplitudes has mirror
// pairs: a power of two of at least 2.
func checkMirror(op string, size int) {
	if size < 2 {
		panic(fmt.Sprintf("statevec: %s needs a half state of at least 2 amplitudes, got %d", op, size))
	}
	numQubits(size)
}

func mirrorRXPlanes[T Float](p *Pool, re, im []T, beta float64) {
	checkMirror("ApplyMirrorRX", len(re))
	sn64, cs64 := math.Sincos(beta)
	sn, cs := T(sn64), T(cs64)
	last := len(re) - 1
	p.Run(len(re)/2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m := last - i
			r1, i1 := re[i], im[i]
			r2, i2 := re[m], im[m]
			re[i] = cs*r1 + sn*i2
			im[i] = cs*i1 - sn*r2
			re[m] = cs*r2 + sn*i1
			im[m] = cs*i2 - sn*r1
		}
	})
}

func reverseMirrorRXPlanes[T Float](p *Pool, lr, li, pr, pi []T, beta float64) float64 {
	checkPair("ReverseMirrorRX", len(lr), len(pr))
	checkMirror("ReverseMirrorRX", len(lr))
	sn64, cs64 := math.Sincos(-beta)
	sn, cs := T(sn64), T(cs64)
	last := len(lr) - 1
	return p.Reduce(len(lr)/2, func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			m := last - i
			a1, b1, a2, b2 := lr[i], li[i], lr[m], li[m]
			c1, d1, c2, d2 := pr[i], pi[i], pr[m], pi[m]
			acc += float64(a1)*float64(d2) - float64(b1)*float64(c2) + float64(a2)*float64(d1) - float64(b2)*float64(c1)
			lr[i] = cs*a1 + sn*b2
			li[i] = cs*b1 - sn*a2
			lr[m] = cs*a2 + sn*b1
			li[m] = cs*b2 - sn*a1
			pr[i] = cs*c1 + sn*d2
			pi[i] = cs*d1 - sn*c2
			pr[m] = cs*c2 + sn*d1
			pi[m] = cs*d2 - sn*c1
		}
		return acc
	})
}
