package statevec

import (
	"fmt"
	"math"
	"math/bits"
)

// This file holds the pivot kernels of a state stored over a bit-flip
// symmetry group (internal/shard's group states, single-rank or
// sharded).
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
// pairs i with its mirror len−1−i. Any nonzero μ < len works, so a
// distributed rank passes the pair mask its layout gives the pivot.

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

// MirrorRXPlanes is the pivot kernel on split planes: RX(β) on every
// pair (i, i ⊕ mu). A group shard runs it once per pivot, on its
// transposed planes at k > 0, with the local mask at which each
// amplitude's pivot partner lies there.
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
