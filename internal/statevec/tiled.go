package statevec

import (
	"fmt"
	"math"
)

// This file holds the cache-tiled transverse-field mixer kernels of the
// split planes: one forward layer and one adjoint reverse
// step, each a handful of passes over cache-sized tiles instead of one
// pass over the whole state per qubit (Algorithm 2) or per qubit pair
// (§VI's F = 2 fusion). The mixer is memory-bound, so the passes, not
// the arithmetic, set its cost.
//
// Pass 1 works through blocks of 2^low contiguous amplitudes (low ≤ 12)
// and applies every qubit below low while the block is in cache. Each
// later pass takes a group of up to 8 higher qubits; its tile is the
// group's 2^g rows (the amplitudes that differ only in the group's
// bits) times one run of 16 contiguous amplitudes. Tiles are closed
// under the operations of their pass and every qubit's operation still
// runs in the sweep's order, so each amplitude sees the same sequence
// of arithmetic as in the untiled sweep: tiling changes where the data
// sits, not the results. Only reductions, summed per tile, change their
// summation order.
//
// The forward layer is the F = 2 sweep: RX⊗RX blocks on the pairs
// (0,1), (2,3), …, with the last qubit alone when n is odd. Pass 1
// applies the phase to each block while it is in cache, so the phase
// costs no pass of its own. The reverse step is per qubit — a
// pair-fused reverse measured slower — and folds the phase reduction
// and undo into its last pass.
//
// The qubit-range kernels (UniformRXRangePlanes, ReverseRXRangePlanes)
// run the later passes alone over a range [lo, hi) of qubits. A
// distributed shard applies them to the global qubits that an
// all-to-all has swapped into its top local positions, so the layer on
// the local qubits and the range pass together give each amplitude the
// single-node layer's arithmetic.

// Tile shape. These are constants of the kernels, not settings.
const (
	// tileLow is the most qubits pass 1 handles: blocks of 4096
	// amplitudes, 64 KiB of float64 planes.
	tileLow = 12
	// tileGroup is the most qubits one later pass handles.
	tileGroup = 8
	// tileRunBits is log2 of tileRun, the contiguous amplitudes a
	// later-pass tile takes from each of its rows.
	tileRunBits = 4
	tileRun     = 1 << tileRunBits
)

// tileLowQubits returns how many qubits pass 1 handles for an n-qubit
// state on a pool of the given size: all of them up to n = 12, as one
// inline block; otherwise the even count ≤ 12 that leaves at least one
// block per worker, but never below tileRunBits, so a later pass's rows
// hold whole runs. Even, so that no F = 2 pair straddles two passes.
func tileLowQubits(n, workers int) int {
	if n <= tileLow {
		return n
	}
	low := tileLow
	for low-2 >= tileRunBits && 1<<uint(n-low) < workers {
		low -= 2
	}
	return low
}

// tileBase returns the first amplitude of tile t in the pass over the
// qubit group [q0, q0+g): t enumerates the column runs below q0, then
// the index bits above the group.
func tileBase(t, q0, g int) int {
	cols := uint(q0 - tileRunBits)
	return (t>>cols)<<uint(q0+g) | (t&(1<<cols-1))<<tileRunBits
}

// forTileRows calls fn with the first amplitude of every row of a tile
// at base whose bits j..j+width−1 of the g-bit row index are clear: the
// rows that start the qubit (width 1) or qubit-pair (width 2) groups of
// qubit q0+j.
func forTileRows(base, q0, g, j, width int, fn func(i int)) {
	for hi := 0; hi < 1<<uint(g); hi += 1 << uint(j+width) {
		for r := hi; r < hi+1<<uint(j); r++ {
			fn(base + r<<uint(q0))
		}
	}
}

// rxCoeffs holds the RX(β) coefficients in the plane type: cos β and
// sin β for single-qubit steps, and the RX⊗RX block's cos²β, sin²β and
// cos β·sin β, each computed in float64 and rounded once.
type rxCoeffs[T Float] struct{ c, s, cc, ss, cs T }

func newRXCoeffs[T Float](beta float64) rxCoeffs[T] {
	s, c := math.Sincos(beta)
	return rxCoeffs[T]{c: T(c), s: T(s), cc: T(c * c), ss: T(s * s), cs: T(c * s)}
}

// ApplyUniformRX applies the transverse-field mixer e^{−iβΣX_q} with
// the tiled F = 2 kernel.
func (s *SoA) ApplyUniformRX(p *Pool, beta float64) { UniformRXPlanes(p, s.Re, s.Im, Phase{}, beta) }

// UniformRXPlanes is the tiled forward layer on split planes: one QAOA
// layer e^{−iβΣX_q}·e^{−iγĈ} with the phase of ph applied to each
// first-pass block while it is in cache, bit-identical to
// ApplyPhasePlanes followed by the mixer; a zero ph applies the mixer
// alone. Phase factors and rotation coefficients are evaluated in
// float64 and rounded once to the plane type.
func UniformRXPlanes[T Float](p *Pool, re, im []T, ph Phase, beta float64) {
	if ph.active() {
		ph.check("UniformRXPlanes", len(re))
	}
	n := numQubits(len(re))
	k := newRXCoeffs[T](beta)
	low := tileLowQubits(n, p.workers())
	size := 1 << uint(low)
	p.RunTasks(len(re)>>uint(low), len(re)/2, func(lo, hi int) {
		for b := lo * size; b < hi*size; b += size {
			rxBlock(re, im, ph, k, low, b, b+size)
		}
	})
	rxPasses(p, re, im, k, low, n)
}

// UniformRXRangePlanes applies RX(β) on the qubits [lo, hi) of split
// planes: RX⊗RX on the pairs (lo, lo+1), (lo+2, lo+3), …, then RX alone
// on qubit hi−1 when hi−lo is odd. It runs the tiled layer's later
// passes over the range, each amplitude seeing the same arithmetic as
// in UniformRXPlanes when lo is even; below tileRunBits, where rows
// are shorter than a run, it takes one untiled pass per pair.
func UniformRXRangePlanes[T Float](p *Pool, re, im []T, lo, hi int, beta float64) {
	checkRange("UniformRXRangePlanes", numQubits(len(re)), lo, hi)
	k := newRXCoeffs[T](beta)
	if lo >= tileRunBits {
		rxPasses(p, re, im, k, lo, hi)
		return
	}
	work := len(re) / 2
	q := lo
	for ; q+1 < hi; q += 2 {
		p.RunTasks(len(re)/4, work, func(a, b int) { rxPairRange(re, im, q, k, a, b) })
	}
	if q < hi {
		p.RunTasks(len(re)/2, work, func(a, b int) { rxRange(re, im, q, k.c, k.s, a, b) })
	}
}

// rxPasses runs the tiled forward passes over the qubits [lo, hi),
// tileGroup qubits per pass; lo ≥ tileRunBits unless the range is
// empty.
func rxPasses[T Float](p *Pool, re, im []T, k rxCoeffs[T], lo, hi int) {
	for q0 := lo; q0 < hi; q0 += tileGroup {
		g := min(tileGroup, hi-q0)
		p.RunTasks(len(re)>>uint(g+tileRunBits), len(re)/2, func(a, b int) {
			for t := a; t < b; t++ {
				rxTile(re, im, k, tileBase(t, q0, g), q0, g)
			}
		})
	}
}

// checkRange panics unless [lo, hi) is a qubit range of an n-qubit
// state.
func checkRange(op string, n, lo, hi int) {
	if lo < 0 || hi > n || lo > hi {
		panic(fmt.Sprintf("statevec: %s qubit range [%d,%d) invalid for n=%d", op, lo, hi, n))
	}
}

// rxBlock runs pass 1 of the forward layer on the amplitudes [lo, hi),
// a block of 2^low: the phase, then RX⊗RX on the pairs below low, then
// RX alone on the last qubit if low is odd (which happens only when the
// block is the whole state).
func rxBlock[T Float](re, im []T, ph Phase, k rxCoeffs[T], low, lo, hi int) {
	if ph.active() {
		phaseRangePlanes(re, im, ph, lo, hi)
	}
	q := 0
	for ; q+1 < low; q += 2 {
		if q < tileRunBits {
			rxPairRange(re, im, q, k, lo/4, hi/4)
			continue
		}
		s := 1 << uint(q)
		for i := lo; i < hi; i += 4 * s {
			for c := i; c < i+s; c += tileRun {
				rxPairRun(re, im, c, s, k)
			}
		}
	}
	if q < low {
		rxRange(re, im, q, k.c, k.s, lo/2, hi/2)
	}
}

// rxTile runs one tile of a later forward pass: RX⊗RX on the group's
// qubit pairs, then RX alone on its last qubit if g is odd.
func rxTile[T Float](re, im []T, k rxCoeffs[T], base, q0, g int) {
	j := 0
	for ; j+1 < g; j += 2 {
		s := 1 << uint(q0+j)
		forTileRows(base, q0, g, j, 2, func(i int) { rxPairRun(re, im, i, s, k) })
	}
	if q := q0 + j; j < g {
		forTileRows(base, q0, g, j, 1, func(i int) {
			t := (i>>uint(q+1))<<uint(q) | i&(1<<uint(q)-1)
			rxRange(re, im, q, k.c, k.s, t, t+tileRun)
		})
	}
}

// rxRange applies RX on qubit q to the amplitude pairs t ∈ [lo, hi):
//
//	re1' =  c·re1 + s·im2    im1' = c·im1 − s·re2
//	re2' =  c·re2 + s·im1    im2' = c·im2 − s·re1
//
// which is [[c, −is], [−is, c]] expanded into real arithmetic.
func rxRange[T Float](re, im []T, q int, cs, sn T, lo, hi int) {
	stride := 1 << uint(q)
	mask := stride - 1
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
}

// rxPairRange applies RX⊗RX on the adjacent qubits (q, q+1) to the
// amplitude quadruples t ∈ [lo, hi). The 4×4 block for
// U = [[c, −is], [−is, c]] ⊗ same is
//
//	[ cc   −ics  −ics  −ss ]
//	[ −ics  cc   −ss   −ics]
//	[ −ics  −ss   cc   −ics]
//	[ −ss  −ics  −ics   cc ]
//
// expanded into real arithmetic (−i·x has re = im(x), im = −re(x)).
func rxPairRange[T Float](re, im []T, q int, k rxCoeffs[T], lo, hi int) {
	cc, ss, cs := k.cc, k.ss, k.cs
	stride := 1 << uint(q)
	mask := stride - 1
	for t := lo; t < hi; t++ {
		i00 := (t>>uint(q))<<uint(q+2) | (t & mask)
		i01 := i00 + stride
		i10 := i00 + 2*stride
		i11 := i01 + 2*stride
		r00, m00 := re[i00], im[i00]
		r01, m01 := re[i01], im[i01]
		r10, m10 := re[i10], im[i10]
		r11, m11 := re[i11], im[i11]
		re[i00] = cc*r00 + cs*(m01+m10) - ss*r11
		im[i00] = cc*m00 - cs*(r01+r10) - ss*m11
		re[i01] = cc*r01 + cs*(m00+m11) - ss*r10
		im[i01] = cc*m01 - cs*(r00+r11) - ss*m10
		re[i10] = cc*r10 + cs*(m00+m11) - ss*r01
		im[i10] = cc*m10 - cs*(r00+r11) - ss*m01
		re[i11] = cc*r11 + cs*(m01+m10) - ss*r00
		im[i11] = cc*m11 - cs*(r01+r10) - ss*m00
	}
}

// rxPairRun is rxPairRange on the tileRun quadruples
// (i+c, i+s+c, i+2s+c, i+3s+c) of a tile's rows.
func rxPairRun[T Float](re, im []T, i, s int, k rxCoeffs[T]) {
	cc, ss, cs := k.cc, k.ss, k.cs
	a0, b0 := (*[tileRun]T)(re[i:]), (*[tileRun]T)(im[i:])
	a1, b1 := (*[tileRun]T)(re[i+s:]), (*[tileRun]T)(im[i+s:])
	a2, b2 := (*[tileRun]T)(re[i+2*s:]), (*[tileRun]T)(im[i+2*s:])
	a3, b3 := (*[tileRun]T)(re[i+3*s:]), (*[tileRun]T)(im[i+3*s:])
	for c := 0; c < tileRun; c++ {
		r00, m00 := a0[c], b0[c]
		r01, m01 := a1[c], b1[c]
		r10, m10 := a2[c], b2[c]
		r11, m11 := a3[c], b3[c]
		a0[c] = cc*r00 + cs*(m01+m10) - ss*r11
		b0[c] = cc*m00 - cs*(r01+r10) - ss*m11
		a1[c] = cc*r01 + cs*(m00+m11) - ss*r10
		b1[c] = cc*m01 - cs*(r00+r11) - ss*m10
		a2[c] = cc*r10 + cs*(m00+m11) - ss*r01
		b2[c] = cc*m10 - cs*(r00+r11) - ss*m01
		a3[c] = cc*r11 + cs*(m01+m10) - ss*r00
		b3[c] = cc*m11 - cs*(r01+r10) - ss*m00
	}
}

// ReverseUniformRXPlanes is the adjoint reverse step of one x-mixer
// layer on split planes, with (lr, li) as the bra λ: for q = 0, …, n−1
// it adds Im ⟨λ|X_q|ψ⟩ and applies RX(−β) on qubit q to λ and ψ, and
// returns the sum as mixer. When ph has a cost source it then returns
// Im ⟨λ|Ĉ|ψ⟩ as phase and, with undo, undoes ph on both states; a zero
// ph runs the mixer alone. The states end bit-identical to per-qubit
// RX(−β) steps followed by ReversePhasePlanes; reductions accumulate in
// float64.
func ReverseUniformRXPlanes[T Float](p *Pool, lr, li, pr, pi []T, beta float64, ph Phase, undo bool) (mixer, phase float64) {
	checkPair("ReverseUniformRX", len(lr), len(pr))
	if ph.active() {
		ph.check("ReverseUniformRX", len(lr))
	}
	n := numQubits(len(lr))
	sn64, cs64 := math.Sincos(-beta)
	sn, cs := T(sn64), T(cs64)
	low := tileLowQubits(n, p.workers())
	size := 1 << uint(low)
	phaseInBlocks := ph.active() && low == n
	mixer, phase = p.reduceTasks(len(lr)>>uint(low), len(lr)/2, func(lo, hi int) (dx, dc float64) {
		for b := lo * size; b < hi*size; b += size {
			for q := 0; q < min(low, tileRunBits); q++ {
				dx += reverseRXRangePlanes(lr, li, pr, pi, q, cs, sn, b/2, (b+size)/2)
			}
			for q := tileRunBits; q < low; q++ {
				s := 1 << uint(q)
				for i := b; i < b+size; i += 2 * s {
					for c := i; c < i+s; c += tileRun {
						dx += reverseRXRun(lr, li, pr, pi, c, s, cs, sn)
					}
				}
			}
			if phaseInBlocks {
				dc += reversePhaseRangePlanes(lr, li, pr, pi, ph, undo, b, b+size)
			}
		}
		return dx, dc
	})
	return reversePasses(p, lr, li, pr, pi, cs, sn, low, n, ph, undo, mixer, phase)
}

// ReverseRXRangePlanes is the joint reverse step on the qubits
// [lo, hi) of split planes with (lr, li) as λ: for each qubit q it adds
// Im ⟨λ|X_q|ψ⟩ and applies RX(−β) to λ and ψ, and returns the sum. It
// runs the tiled reverse step's later passes over the range; below
// tileRunBits it takes one untiled pass per qubit.
func ReverseRXRangePlanes[T Float](p *Pool, lr, li, pr, pi []T, lo, hi int, beta float64) float64 {
	checkPair("ReverseRXRangePlanes", len(lr), len(pr))
	checkRange("ReverseRXRangePlanes", numQubits(len(lr)), lo, hi)
	sn64, cs64 := math.Sincos(-beta)
	sn, cs := T(sn64), T(cs64)
	if lo >= tileRunBits {
		mixer, _ := reversePasses(p, lr, li, pr, pi, cs, sn, lo, hi, Phase{}, false, 0, 0)
		return mixer
	}
	var mixer float64
	for q := lo; q < hi; q++ {
		dx, _ := p.reduceTasks(len(lr)/2, len(lr)/2, func(a, b int) (float64, float64) {
			return reverseRXRangePlanes(lr, li, pr, pi, q, cs, sn, a, b), 0
		})
		mixer += dx
	}
	return mixer
}

// reversePasses runs the tiled reverse passes over the qubits
// [lo, hi), tileGroup qubits per pass, with the phase reduction and
// undo in the last pass when ph has a cost source, and adds each
// pass's reductions to mixer and phase in pass order; lo ≥ tileRunBits
// unless the range is empty.
func reversePasses[T Float](p *Pool, lr, li, pr, pi []T, cs, sn T, lo, hi int, ph Phase, undo bool, mixer, phase float64) (float64, float64) {
	for q0 := lo; q0 < hi; q0 += tileGroup {
		g := min(tileGroup, hi-q0)
		last := ph.active() && q0+g == hi
		dx, dc := p.reduceTasks(len(lr)>>uint(g+tileRunBits), len(lr)/2, func(a, b int) (dx, dc float64) {
			for t := a; t < b; t++ {
				base := tileBase(t, q0, g)
				for j := 0; j < g; j++ {
					s := 1 << uint(q0+j)
					forTileRows(base, q0, g, j, 1, func(i int) { dx += reverseRXRun(lr, li, pr, pi, i, s, cs, sn) })
				}
				if last {
					forTileRows(base, q0, g, 0, 0, func(i int) {
						dc += reversePhaseRangePlanes(lr, li, pr, pi, ph, undo, i, i+tileRun)
					})
				}
			}
			return dx, dc
		})
		mixer += dx
		phase += dc
	}
	return mixer, phase
}

// reverseRXRangePlanes runs the joint RX(−β) reverse step on qubit q
// over the amplitude pairs t ∈ [lo, hi) of λ (lr, li) and ψ (pr, pi),
// returning their share of Im ⟨λ|X_q|ψ⟩; (cs, sn) = (cos, sin)(−β).
func reverseRXRangePlanes[T Float](lr, li, pr, pi []T, q int, cs, sn T, lo, hi int) float64 {
	stride := 1 << uint(q)
	mask := stride - 1
	var acc float64
	for t := lo; t < hi; t++ {
		l1 := (t>>uint(q))<<uint(q+1) | (t & mask)
		l2 := l1 + stride
		a1, b1, a2, b2 := lr[l1], li[l1], lr[l2], li[l2]
		c1, d1, c2, d2 := pr[l1], pi[l1], pr[l2], pi[l2]
		acc += float64(a1)*float64(d2) - float64(b1)*float64(c2) + float64(a2)*float64(d1) - float64(b2)*float64(c1)
		lr[l1] = cs*a1 + sn*b2
		li[l1] = cs*b1 - sn*a2
		lr[l2] = cs*a2 + sn*b1
		li[l2] = cs*b2 - sn*a1
		pr[l1] = cs*c1 + sn*d2
		pi[l1] = cs*d1 - sn*c2
		pr[l2] = cs*c2 + sn*d1
		pi[l2] = cs*d2 - sn*c1
	}
	return acc
}

// reverseRXRun is reverseRXRangePlanes on the tileRun pairs
// (i+c, i+s+c) of a tile row.
func reverseRXRun[T Float](lr, li, pr, pi []T, i, s int, cs, sn T) float64 {
	lr1, li1 := (*[tileRun]T)(lr[i:]), (*[tileRun]T)(li[i:])
	lr2, li2 := (*[tileRun]T)(lr[i+s:]), (*[tileRun]T)(li[i+s:])
	pr1, pi1 := (*[tileRun]T)(pr[i:]), (*[tileRun]T)(pi[i:])
	pr2, pi2 := (*[tileRun]T)(pr[i+s:]), (*[tileRun]T)(pi[i+s:])
	var acc float64
	for c := 0; c < tileRun; c++ {
		a1, b1, a2, b2 := lr1[c], li1[c], lr2[c], li2[c]
		c1, d1, c2, d2 := pr1[c], pi1[c], pr2[c], pi2[c]
		acc += float64(a1)*float64(d2) - float64(b1)*float64(c2) + float64(a2)*float64(d1) - float64(b2)*float64(c1)
		lr1[c] = cs*a1 + sn*b2
		li1[c] = cs*b1 - sn*a2
		lr2[c] = cs*a2 + sn*b1
		li2[c] = cs*b2 - sn*a1
		pr1[c] = cs*c1 + sn*d2
		pi1[c] = cs*d1 - sn*c2
		pr2[c] = cs*c2 + sn*d1
		pi2[c] = cs*d2 - sn*c1
	}
	return acc
}
