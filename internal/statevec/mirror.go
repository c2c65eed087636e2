package statevec

import (
	"fmt"
	"math"
	"math/bits"
)

// This file holds the pivot kernels of a state stored over a bit-flip
// symmetry group (internal/core's group state, distsim's half shards).
// If ψ(x ⊕ g) = ψ(x) for every x and every g of a group whose elements
// carry each of the top h bits, the state can be stored over the
// 2^(n−h) indices whose top h bits are zero, holding the full state's
// amplitude values. X_q with q < n−h maps stored indices to stored
// indices, so the tiled kernels run on the stored planes unchanged, as
// an (n−h)-qubit state. For a top qubit q, let g = 2^q ⊕ μ be the
// group element whose top h bits are bit q alone, μ its stored-index
// part: X_q maps a stored index i to i + 2^q, whose stored image is
// i ⊕ μ. On the stored planes, qubit q's RX therefore pairs amplitude i
// with i ⊕ μ. A nonzero μ makes the pairs disjoint, so chunks of them
// run in parallel. μ = len−1 (the complement group {0, 1…1}, h = 1)
// pairs i with its mirror len−1−i.

// ApplyMirrorRX applies the RX(β) of a pivot qubit to the stored state
// s: the pair update of ApplyRX on every pair (i, i ⊕ mu).
func (s *SoA) ApplyMirrorRX(p *Pool, mu int, beta float64) { MirrorRXPlanes(p, s.Re, s.Im, mu, beta) }

// ApplyMirrorRX applies the RX(β) of a pivot qubit to the
// single-precision stored state s.
func (s *SoA32) ApplyMirrorRX(p *Pool, mu int, beta float64) { MirrorRXPlanes(p, s.Re, s.Im, mu, beta) }

// ReverseMirrorRX is the adjoint reverse step of a pivot qubit on a
// stored state pair, with s as the bra λ: it applies RX(−β) on the pairs
// (i, i ⊕ mu) of λ and ψ and returns Im ⟨λ|X_q|ψ⟩ summed over the
// stored amplitudes, accumulated in float64.
func (s *SoA) ReverseMirrorRX(p *Pool, psi *SoA, mu int, beta float64) float64 {
	return ReverseMirrorRXPlanes(p, s.Re, s.Im, psi.Re, psi.Im, mu, beta)
}

// ReverseMirrorRX is the single-precision pivot reverse step with s as
// λ.
func (s *SoA32) ReverseMirrorRX(p *Pool, psi *SoA32, mu int, beta float64) float64 {
	return ReverseMirrorRXPlanes(p, s.Re, s.Im, psi.Re, psi.Im, mu, beta)
}

// checkMirror panics unless a stored state of size amplitudes has the
// pairs (i, i ⊕ mu): a power of two of at least 2, and 0 < mu < size.
// It returns mu's highest bit, which is clear in the first index of
// every pair.
func checkMirror(op string, size, mu int) int {
	if size < 2 {
		panic(fmt.Sprintf("statevec: %s needs a stored state of at least 2 amplitudes, got %d", op, size))
	}
	numQubits(size)
	if mu <= 0 || mu >= size {
		panic(fmt.Sprintf("statevec: %s pair mask %#x outside (0, %d)", op, mu, size))
	}
	return bits.Len(uint(mu)) - 1
}

// forPairRuns calls fn(i, end) for the runs of consecutive first
// indices i < end of the pairs t ∈ [lo, hi): the indices with bit top
// clear, where top is the pair mask's highest bit.
func forPairRuns(lo, hi, top int, fn func(i, end int)) {
	run := 1 << uint(top)
	for t := lo; t < hi; {
		k := min(hi-t, run-t&(run-1))
		i := (t>>uint(top))<<uint(top+1) | t&(run-1)
		fn(i, i+k)
		t += k
	}
}

// MirrorRXPlanes is the pivot kernel on split planes, behind
// ApplyMirrorRX: RX(β) on every pair (i, i ⊕ mu). A distributed half
// shard runs it with mu = len(re)−1 on planes whose local complement
// is the mirror partner of each amplitude.
func MirrorRXPlanes[T Float](p *Pool, re, im []T, mu int, beta float64) {
	top := checkMirror("ApplyMirrorRX", len(re), mu)
	sn64, cs64 := math.Sincos(beta)
	sn, cs := T(sn64), T(cs64)
	p.Run(len(re)/2, func(lo, hi int) {
		forPairRuns(lo, hi, top, func(i, end int) {
			for ; i < end; i++ {
				m := i ^ mu
				r1, i1 := re[i], im[i]
				r2, i2 := re[m], im[m]
				re[i] = cs*r1 + sn*i2
				im[i] = cs*i1 - sn*r2
				re[m] = cs*r2 + sn*i1
				im[m] = cs*i2 - sn*r1
			}
		})
	})
}

// ReverseMirrorRXPlanes is the joint pivot reverse step on split
// planes, behind ReverseMirrorRX, with (lr, li) as λ.
func ReverseMirrorRXPlanes[T Float](p *Pool, lr, li, pr, pi []T, mu int, beta float64) float64 {
	checkPair("ReverseMirrorRX", len(lr), len(pr))
	top := checkMirror("ReverseMirrorRX", len(lr), mu)
	sn64, cs64 := math.Sincos(-beta)
	sn, cs := T(sn64), T(cs64)
	return p.Reduce(len(lr)/2, func(lo, hi int) float64 {
		var acc float64
		forPairRuns(lo, hi, top, func(i, end int) {
			for ; i < end; i++ {
				m := i ^ mu
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
		})
		return acc
	})
}
