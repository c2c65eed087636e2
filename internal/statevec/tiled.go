package statevec

import (
	"fmt"
	"math"
	"math/bits"
)

// This file holds the cache-tiled transverse-field mixer kernels of the
// split planes: one forward layer and one adjoint reverse step, each a
// handful of passes over cache-sized tiles instead of one pass over the
// whole state per qubit (Algorithm 2) or per qubit pair (§VI's F = 2
// fusion). The mixer is memory-bound, so the passes, not the
// arithmetic, set its cost.
//
// Pass 1 works through blocks of 2^low contiguous amplitudes (low ≤ 12)
// and applies every qubit below low while the block is in cache. Each
// later pass takes a group of up to 8 higher qubits; its tile is the
// group's 2^g rows (the amplitudes that differ only in the group's
// bits) times one run of 16 or more contiguous amplitudes. Tiles are
// closed under the operations of their pass and every qubit's operation
// still runs in the untiled order, so each amplitude sees the same
// sequence of arithmetic as in the untiled composition: tiling changes
// where the data sits, not the results. Only reductions, summed per
// tile, change their summation order.
//
// The forward layer is the F = 2 sweep: RX⊗RX blocks on the pairs
// (0,1), (2,3), …, with the last qubit alone when n is odd. Pass 1
// applies the phase to each block while it is in cache, so the phase
// costs no pass of its own. A group state's top qubits then run as
// pivot passes (mirror.go).
//
// The reverse step (ReverseXPlanes) runs in the Walsh basis instead:
// Hadamard stages (a, b) → (a+b, a−b) in the forward passes' blocks and
// tiles take λ and ψ there, the last group's pass reads the mixer
// derivative off the diagonal n − 2w(y) and undoes the mixer, the same
// stages in reverse bring both states back, and the last pass reads and
// undoes the phase. It reads a group state's pivots as parities of the
// diagonal, so the pivot passes and the relabel serve only the forward
// layer. The per-qubit tiled reverse step it replaced and a pair-fused
// one measured slower (README, "Cache-tiled F = 2 mixer").
//
// The qubit-range kernel UniformRXRangePlanes runs the later forward
// passes alone over a range [lo, hi) of qubits. A distributed shard
// applies it to the global qubits that an all-to-all has swapped into
// its top local positions, so the layer on the local qubits and the
// range pass together give each amplitude the single-node layer's
// arithmetic; the reverse step does the same with its own passes.

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

// XDiag is the transverse-field mixer Σ_q X_q of an n-qubit state as a
// diagonal in the Walsh basis of the planes a reverse step runs on
// (ReverseXPlanes): Σ_q X_q = H^⊗n·diag(n − 2|y|)·H^⊗n. A state stored
// over a group of 2^h bit flips (pivot j carrying qubit n−h+j, μ_j its
// stored-index part) has Walsh weight only on the y whose top bits are
// the parities of y ∧ μ_j, so on the stored planes the diagonal is
// n − 2w(y) with w(y) = |y| + Σ_j parity(y ∧ μ_j).
type XDiag struct {
	// N is the full state's qubit count and Stored the stored state's,
	// n − h: the transform spans 2^Stored amplitudes, on one set of
	// planes or over 2^(Stored − log2 len) shards.
	N, Stored int
	// Masks are the pivots' parity masks over plane indices: μ_j on one
	// set of planes.
	Masks []int
	// Weight and Parity are what the index bits outside the planes add
	// to |y| and to the pivots' parities (bit j for pivot j): zero on
	// one set of planes, a shard's rank bits on a distributed one.
	Weight int
	Parity uint64
}

// ReverseXPlanes is the adjoint reverse step of one x-mixer layer on
// split planes, with (lr, li) as the bra λ: it returns
// mixer = Σ_q Im ⟨λ|X_q|ψ⟩ over the stored amplitudes and undoes
// e^{−iβΣX_q} on both states, in the Walsh basis of d. The first
// transform T1 takes both states to that basis by the Hadamard stages
// (a, b) → (a+b, a−b) of the qubits in ascending order; one pass then
// reads
//
//	mixer = Σ_y (n − 2w(y))·Im(conj(λ̂_y)·ψ̂_y) / 2^Stored
//
// and multiplies both by e^{iβ(n−2w(y))}/2^Stored from an (n+1)-entry
// table; T2, the same stages in reverse order, takes them back. When ph
// has a cost source the last pass then returns Im ⟨λ|Ĉ|ψ⟩ as phase and,
// with undo, undoes ph on both states; a zero ph runs the mixer alone.
// Reductions accumulate in float64.
//
// The passes are tiled as in the forward layer: pass 1 runs the stages
// below tileLowQubits on cache-sized blocks, each later pass a group of
// up to tileGroup qubits, the diagonal inside the last group's pass.
// Every amplitude sees the stages in one order however they are split
// into passes and sweeps, so the states do not depend on the tile shape
// or the pool size; only the reductions' summation order does.
//
// On one of 2^k shards (len = 2^(Stored−k)), swap must run an
// all-to-all of both states that brings the k global qubits to the top
// k plane positions, where d describes the planes: the local stages of
// T1 run first, then swap, T1, the diagonal and T2 on the swapped-in
// qubits, swap back and the local stages of T2. At k = 0 swap is not
// called and may be nil; err is swap's.
func ReverseXPlanes[T Float](p *Pool, lr, li, pr, pi []T, beta float64, d XDiag, ph Phase, undo bool, swap func() error) (mixer, phase float64, err error) {
	checkPair("ReverseX", len(lr), len(pr))
	if ph.active() {
		ph.check("ReverseX", len(lr))
	}
	n := numQubits(len(lr))
	k := d.Stored - n
	checkQubits(d.N)
	if k < 0 || d.Stored > d.N || k > 0 && swap == nil {
		panic(fmt.Sprintf("statevec: ReverseX on 2^%d amplitudes of a %d-qubit stored state of %d qubits", n, d.Stored, d.N))
	}
	st := newWalshStep(lr, li, pr, pi, beta, d, ph, undo)
	low := tileLowQubits(n, p.workers())
	last := walshOut
	if ph.active() {
		last |= walshPhase
	}
	if k == 0 && low == n {
		mixer, phase = st.blocks(p, 0, n, walshInto|walshDiag|last)
		return math.Ldexp(mixer, -d.Stored), phase, nil
	}
	st.blocks(p, 0, low, walshInto)
	if k == 0 {
		mixer = st.groups(p, low, n, walshInto|walshDiag|walshOut)
	} else {
		st.groups(p, low, n, walshInto)
		if err := swap(); err != nil {
			return 0, 0, err
		}
		if n-k >= tileRunBits {
			mixer = st.groups(p, n-k, n, walshInto|walshDiag|walshOut)
		} else {
			mixer, _ = st.blocks(p, n-k, n, walshInto|walshDiag|walshOut)
		}
		if err := swap(); err != nil {
			return 0, 0, err
		}
		st.groups(p, low, n, walshOut)
	}
	_, phase = st.blocks(p, 0, low, last)
	return math.Ldexp(mixer, -d.Stored), phase, nil
}

// What one pass of the reverse step runs on each block or tile, in
// this order.
const (
	walshInto  = 1 << iota // T1's stages of the pass's qubits
	walshDiag              // the diagonal: read the mixer, multiply by the undo factor
	walshOut               // T2's stages of the pass's qubits
	walshPhase             // read and, with undo, undo the phase
)

// walshStep is one reverse step's state and the pass it runs next:
// blocks of the qubits [q0, q1) when g is 0, else tiles of the group
// [q0, q0+g). Passes run it by value, so a pass on an inline pool
// allocates nothing.
type walshStep[T Float] struct {
	lr, li, pr, pi []T
	ph             Phase
	undo           bool
	// fac[w] holds the weight-w factor e^{iβ(n−2w)}/2^Stored and n − 2w.
	fac    [maxQubits + 1]walshFactor[T]
	masks  []int
	weight int
	parity uint64
	// lowParity[c] is the parity bits of the run offset c.
	lowParity [tileRun]uint64

	mode, q0, q1, g int
	// cols is log2 of a tile row's length, at least tileRunBits.
	cols int
}

// walshFactor is the undo factor c + i·s of one Walsh weight and the
// weight's mixer eigenvalue k = n − 2w.
type walshFactor[T Float] struct {
	c, s T
	k    float64
}

func newWalshStep[T Float](lr, li, pr, pi []T, beta float64, d XDiag, ph Phase, undo bool) walshStep[T] {
	st := walshStep[T]{lr: lr, li: li, pr: pr, pi: pi, ph: ph, undo: undo, masks: d.Masks, weight: d.Weight, parity: d.Parity}
	for w := 0; w <= d.N; w++ {
		sn, cs := math.Sincos(beta * float64(d.N-2*w))
		st.fac[w] = walshFactor[T]{c: T(math.Ldexp(cs, -d.Stored)), s: T(math.Ldexp(sn, -d.Stored)), k: float64(d.N - 2*w)}
	}
	for c := range st.lowParity {
		st.lowParity[c] = st.parities(c)
	}
	return st
}

// parities returns the parity of y ∧ mask_j as bit j.
func (st *walshStep[T]) parities(y int) uint64 {
	var b uint64
	for j, m := range st.masks {
		b |= uint64(bits.OnesCount(uint(y&m))&1) << uint(j)
	}
	return b
}

// blocks runs one pass over the blocks of 2^q1 amplitudes on the
// qubits [q0, q1) with the given mode, returning its reductions.
func (st walshStep[T]) blocks(p *Pool, q0, q1, mode int) (dx, dc float64) {
	st.mode, st.q0, st.q1, st.g = mode, q0, q1, 0
	return st.launch(p, len(st.lr)>>uint(q1))
}

// groups runs the tiled passes over the qubits [lo, hi), lo ≥
// tileRunBits, tileGroup qubits per pass: with walshInto, T1 on the
// groups in ascending order; with walshOut, T2 in descending order;
// the last group's pass runs the whole mode, and so the diagonal,
// between them. It returns the mixer reduction.
func (st walshStep[T]) groups(p *Pool, lo, hi, mode int) float64 {
	if lo >= hi {
		return 0
	}
	last := lo + (hi-lo-1)/tileGroup*tileGroup
	if mode&walshInto != 0 {
		for q0 := lo; q0 < last; q0 += tileGroup {
			st.tiles(p, q0, tileGroup, walshInto)
		}
	}
	dx, _ := st.tiles(p, last, hi-last, mode)
	if mode&walshOut != 0 {
		for q0 := last - tileGroup; q0 >= lo; q0 -= tileGroup {
			st.tiles(p, q0, tileGroup, walshOut)
		}
	}
	return dx
}

// tiles runs one tiled pass over the group [q0, q0+g). Its rows are
// as long as a tile of one pass-1 block per plane allows, 2^(tileLow−g)
// amplitudes, but at least tileRun.
func (st walshStep[T]) tiles(p *Pool, q0, g, mode int) (dx, dc float64) {
	st.mode, st.q0, st.g = mode, q0, g
	st.cols = max(tileRunBits, min(q0, tileLow-g))
	return st.launch(p, len(st.lr)>>uint(g+st.cols))
}

// launch runs the pass st describes over its tasks, inline and with
// no closure when the pool would not split them.
func (st walshStep[T]) launch(p *Pool, tasks int) (dx, dc float64) {
	work := len(st.lr) / 2
	if _, count := p.split(tasks, work); count == 1 {
		return st.run(0, tasks)
	}
	return p.reduceTasks(tasks, work, st.run)
}

// run runs the pass on the blocks or tiles [lo, hi). Tile t enumerates
// the row starts below q0, then the index bits above the group.
func (st walshStep[T]) run(lo, hi int) (dx, dc float64) {
	if st.g > 0 {
		cols := uint(st.q0 - st.cols)
		for t := lo; t < hi; t++ {
			dx += st.tile((t>>cols)<<uint(st.q0+st.g) | (t&(1<<cols-1))<<uint(st.cols))
		}
		return dx, 0
	}
	size := 1 << uint(st.q1)
	for b := lo * size; b < hi*size; b += size {
		x, c := st.block(b, b+size)
		dx += x
		dc += c
	}
	return dx, dc
}

// block runs the pass on the amplitudes [lo, hi), which hold whole
// groups of the qubits [q0, q1). Each plane takes its stages while its
// block is in cache.
func (st *walshStep[T]) block(lo, hi int) (dx, dc float64) {
	planes := [4][]T{st.lr, st.li, st.pr, st.pi}
	if st.mode&walshInto != 0 {
		for _, x := range planes {
			walshStages(x, lo, hi, st.q0, st.q1, false)
		}
	}
	if st.mode&walshDiag != 0 {
		if hi-lo < tileRun {
			dx = st.diagRange(lo, hi)
		} else {
			for i := lo; i < hi; i += tileRun {
				dx += st.diagRun(i)
			}
		}
	}
	if st.mode&walshOut != 0 {
		for _, x := range planes {
			walshStages(x, lo, hi, st.q0, st.q1, true)
		}
	}
	if st.mode&walshPhase != 0 {
		dc = reversePhaseRangePlanes(st.lr, st.li, st.pr, st.pi, st.ph, st.undo, lo, hi)
	}
	return dx, dc
}

// tile runs the pass on the tile at base: 2^g rows of 2^cols
// amplitudes, 2^q0 apart.
func (st *walshStep[T]) tile(base int) (dx float64) {
	planes := [4][]T{st.lr, st.li, st.pr, st.pi}
	if st.mode&walshInto != 0 {
		for _, x := range planes {
			st.tileStages(x, base, false)
		}
	}
	if st.mode&walshDiag != 0 {
		for r := 0; r < 1<<uint(st.g); r++ {
			row := base + r<<uint(st.q0)
			for i := row; i < row+1<<uint(st.cols); i += tileRun {
				dx += st.diagRun(i)
			}
		}
	}
	if st.mode&walshOut != 0 {
		for _, x := range planes {
			st.tileStages(x, base, true)
		}
	}
	return dx
}

// tileStages runs the stages of the group's qubits on the tile at base
// of plane x, as walshStages does on a block: up to three per sweep,
// ascending, or with inverse descending.
func (st *walshStep[T]) tileStages(x []T, base int, inverse bool) {
	rows, cols := 1<<uint(st.g), 1<<uint(st.cols)
	for done := 0; done < st.g; {
		m := min(3, st.g-done)
		j := done
		if inverse {
			j = st.g - done - m
		}
		s := 1 << uint(st.q0+j)
		for hi := 0; hi < rows; hi += 1 << uint(j+m) {
			for r := hi; r < hi+1<<uint(j); r++ {
				row := base + r<<uint(st.q0)
				for i := row; i < row+cols; i += tileRun {
					butterflyRun(x, i, s, m, inverse)
				}
			}
		}
		done += m
	}
}

// diagRun runs the diagonal on the tileRun amplitudes from i, a
// multiple of tileRun: their weights differ from i's by the run
// offset's popcount and parities. It returns their share of the mixer
// reduction.
func (st *walshStep[T]) diagRun(i int) float64 {
	a, b := (*[tileRun]T)(st.lr[i:]), (*[tileRun]T)(st.li[i:])
	c, d := (*[tileRun]T)(st.pr[i:]), (*[tileRun]T)(st.pi[i:])
	w0 := st.weight + bits.OnesCount(uint(i))
	p0 := st.parity ^ st.parities(i)
	var acc float64
	for j := 0; j < tileRun; j++ {
		f := st.fac[w0+bits.OnesCount8(uint8(j))+bits.OnesCount64(p0^st.lowParity[j])]
		ar, ai, cr, ci := a[j], b[j], c[j], d[j]
		acc += f.k * (float64(ar)*float64(ci) - float64(ai)*float64(cr))
		a[j], b[j] = ar*f.c-ai*f.s, ar*f.s+ai*f.c
		c[j], d[j] = cr*f.c-ci*f.s, cr*f.s+ci*f.c
	}
	return acc
}

// diagRange runs the diagonal amplitude by amplitude on [lo, hi).
func (st *walshStep[T]) diagRange(lo, hi int) float64 {
	var acc float64
	for i := lo; i < hi; i++ {
		f := st.fac[st.weight+bits.OnesCount(uint(i))+bits.OnesCount64(st.parity^st.parities(i))]
		ar, ai, cr, ci := st.lr[i], st.li[i], st.pr[i], st.pi[i]
		acc += f.k * (float64(ar)*float64(ci) - float64(ai)*float64(cr))
		st.lr[i], st.li[i] = ar*f.c-ai*f.s, ar*f.s+ai*f.c
		st.pr[i], st.pi[i] = cr*f.c-ci*f.s, cr*f.s+ci*f.c
	}
	return acc
}

// walshStages runs the Hadamard stages (a, b) → (a+b, a−b) of the
// qubits [q0, q1) on x[lo:hi), which holds whole groups of them: T1's
// order, ascending, or with inverse T2's, descending. Stages of the
// same qubits in the same order give the same bits however they are
// grouped into sweeps: from qubit 0 the stages of qubits 0–3 run as one
// butterfly per run of 16, other stages below 4 one sweep each, and the
// rest up to three per sweep.
func walshStages[T Float](x []T, lo, hi, q0, q1 int, inverse bool) {
	from := q0
	if q0 == 0 && q1 >= 4 {
		from = 4
	}
	if !inverse && from > q0 {
		for i := lo; i < hi; i += 16 {
			butterfly16((*[16]T)(x[i:]), false)
		}
	}
	for done := 0; done < q1-from; {
		// The sweep takes the stages [q, q+m): the lowest left in T1,
		// the highest left in T2.
		q, m := from+done, 1
		if inverse {
			q = q1 - 1 - done
		}
		if q >= tileRunBits {
			m = min(3, q1-from-done)
			if inverse {
				m = min(m, q-tileRunBits+1)
				q -= m - 1
			}
		}
		walshRun(x, lo, hi, q, m, inverse)
		done += m
	}
	if inverse && from > q0 {
		for i := lo; i < hi; i += 16 {
			butterfly16((*[16]T)(x[i:]), true)
		}
	}
}

// walshRun runs the m stages of the qubits [q, q+m) on x[lo:hi) in one
// sweep, ascending or with inverse descending; below qubit tileRunBits,
// m is 1.
func walshRun[T Float](x []T, lo, hi, q, m int, inverse bool) {
	s := 1 << uint(q)
	if q < tileRunBits {
		for i := lo; i < hi; i += 2 * s {
			for c := i; c < i+s; c++ {
				a, b := x[c], x[c+s]
				x[c], x[c+s] = a+b, a-b
			}
		}
		return
	}
	for i := lo; i < hi; i += s << uint(m) {
		for c := i; c < i+s; c += tileRun {
			butterflyRun(x, c, s, m, inverse)
		}
	}
}

// butterflyRun runs the m ≤ 3 stages of strides s, 2s, 4s on the
// tileRun columns from i of x: in that order, or with inverse in the
// reverse one.
func butterflyRun[T Float](x []T, i, s, m int, inverse bool) {
	switch {
	case m == 1:
		butterfly2Run(x, i, s)
	case m == 2 && inverse:
		butterfly4Run(x, i, 2*s, s)
	case m == 2:
		butterfly4Run(x, i, s, 2*s)
	case inverse:
		butterfly8Run(x, i, 4*s, 2*s, s)
	default:
		butterfly8Run(x, i, s, 2*s, 4*s)
	}
}

// butterfly2Run runs the stage of stride s on the tileRun pairs
// (i+c, i+s+c) of x.
func butterfly2Run[T Float](x []T, i, s int) {
	x0, x1 := (*[tileRun]T)(x[i:]), (*[tileRun]T)(x[i+s:])
	for c := 0; c < tileRun; c++ {
		a, b := x0[c], x1[c]
		x0[c], x1[c] = a+b, a-b
	}
}

// butterfly4Run runs the stages of strides s1, then s2, on the tileRun
// quadruples (i+c, i+s1+c, i+s2+c, i+s1+s2+c) of x.
func butterfly4Run[T Float](x []T, i, s1, s2 int) {
	x0, x1 := (*[tileRun]T)(x[i:]), (*[tileRun]T)(x[i+s1:])
	x2, x3 := (*[tileRun]T)(x[i+s2:]), (*[tileRun]T)(x[i+s1+s2:])
	for c := 0; c < tileRun; c++ {
		a, b := x0[c]+x1[c], x0[c]-x1[c]
		d0, d1 := x2[c]+x3[c], x2[c]-x3[c]
		x0[c], x1[c], x2[c], x3[c] = a+d0, b+d1, a-d0, b-d1
	}
}

// butterfly8Run runs the stages of strides s1, s2, s3, in that order,
// on the tileRun octets from i of x.
func butterfly8Run[T Float](x []T, i, s1, s2, s3 int) {
	x0, x1 := (*[tileRun]T)(x[i:]), (*[tileRun]T)(x[i+s1:])
	x2, x3 := (*[tileRun]T)(x[i+s2:]), (*[tileRun]T)(x[i+s1+s2:])
	x4, x5 := (*[tileRun]T)(x[i+s3:]), (*[tileRun]T)(x[i+s1+s3:])
	x6, x7 := (*[tileRun]T)(x[i+s2+s3:]), (*[tileRun]T)(x[i+s1+s2+s3:])
	for c := 0; c < tileRun; c++ {
		a0, a1 := x0[c]+x1[c], x0[c]-x1[c]
		a2, a3 := x2[c]+x3[c], x2[c]-x3[c]
		a4, a5 := x4[c]+x5[c], x4[c]-x5[c]
		a6, a7 := x6[c]+x7[c], x6[c]-x7[c]
		b0, b2 := a0+a2, a0-a2
		b1, b3 := a1+a3, a1-a3
		b4, b6 := a4+a6, a4-a6
		b5, b7 := a5+a7, a5-a7
		x0[c], x4[c] = b0+b4, b0-b4
		x1[c], x5[c] = b1+b5, b1-b5
		x2[c], x6[c] = b2+b6, b2-b6
		x3[c], x7[c] = b3+b7, b3-b7
	}
}

// butterfly16 runs the stages of qubits 0–3 on 16 amplitudes: 0, 1,
// 2, 3, or with inverse 3, 2, 1, 0.
func butterfly16[T Float](v *[16]T, inverse bool) {
	if !inverse {
		butterfly4(v, 0, 1, 2, 3)
		butterfly4(v, 4, 5, 6, 7)
		butterfly4(v, 8, 9, 10, 11)
		butterfly4(v, 12, 13, 14, 15)
		butterfly4(v, 0, 4, 8, 12)
		butterfly4(v, 1, 5, 9, 13)
		butterfly4(v, 2, 6, 10, 14)
		butterfly4(v, 3, 7, 11, 15)
		return
	}
	butterfly4(v, 0, 8, 4, 12)
	butterfly4(v, 1, 9, 5, 13)
	butterfly4(v, 2, 10, 6, 14)
	butterfly4(v, 3, 11, 7, 15)
	butterfly4(v, 0, 2, 1, 3)
	butterfly4(v, 4, 6, 5, 7)
	butterfly4(v, 8, 10, 9, 11)
	butterfly4(v, 12, 14, 13, 15)
}

// butterfly4 runs two stages on the amplitudes (i0, i1, i2, i3) of v:
// the first on the pairs (i0, i1) and (i2, i3), the second on (i0, i2)
// and (i1, i3).
func butterfly4[T Float](v *[16]T, i0, i1, i2, i3 int) {
	a, b := v[i0]+v[i1], v[i0]-v[i1]
	c, d := v[i2]+v[i3], v[i2]-v[i3]
	v[i0], v[i1], v[i2], v[i3] = a+c, b+d, a-c, b-d
}
