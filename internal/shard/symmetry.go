package shard

import (
	"math/bits"
	"slices"

	"qokit/internal/cluster"
	"qokit/internal/costvec"
	"qokit/internal/statevec"
)

// Symmetry is how the shards store the state: over the group of 2^h XOR
// masks the pivots generate, with the pivot passes' local masks and the
// relabel that brings every pivot pair onto one rank. The pivot passes
// and the relabel serve only the forward layer: the reverse step reads
// each ν_j as a parity mask of the mixer's Walsh diagonal (walsh),
// after a plain all-to-all.
//
// Pivot j pairs stored index x with x ⊕ μ_j. Write a stored index as
// (r, a, w): the k rank bits, the k bits of the subchunk the all-to-all
// sends to rank a, and the n−h−2k bits w below them. Before the
// transpose each rank moves the part of subchunk a at w to subchunk
// a ⊕ f(w) (relabel), f linear in h bits of w and solved over GF(2) so
// that f(w-part of μ_j) = a-part of μ_j for every pivot. After the
// transpose, x and x ⊕ μ_j then sit on the same rank, at local indices
// (r, w) and (r, w) ⊕ ν_j, and pivot j's pass runs there with the local
// mask ν_j. The relabel is its own inverse, so the transpose back undoes
// it. The complement, μ = 1…1, gives f(w) = (K−1) times w's top bit:
// subchunks a and K−1−a swap their upper halves. At k = 0 the pivot
// passes are simply local, with ν_j = μ_j, and there is no relabel.
type Symmetry struct {
	// Pivots are the group's generators, pivot j carrying qubit n−h+j
	// (costvec.TermPivots), and Group its 2^h elements indexed by their
	// top h bits: {0} and no pivots store the full state.
	Pivots []uint64
	Group  []uint64
	// masks[j] is pivot j's pair mask ν_j over local indices: in the
	// transposed layout at k > 0, in the rank layout at k = 0.
	masks []int
	// The relabel moves the part of a subchunk at local index w by the
	// XOR of xors[i] over the bits[i] set in w.
	bits, xors []int
}

// FullState is the trivial group {0}: the full state.
func FullState() Symmetry { return Symmetry{Group: []uint64{0}} }

// SymmetryFor picks the group an n-qubit state on 2^k shards is stored
// over from the cost's pivots and flip bit (costvec.TermPivots, or a
// stored form's): the pivots when the shards can hold them, else the
// complement when it fixes the cost (flip) and the shards can hold it
// (2k ≤ n − 2), else the full state. Only the x mixer with the |+⟩
// start keeps the symmetry, so keep false gives the full state. At
// k = 0 the shards hold any pivots of a cost on n ≥ 2 qubits.
func SymmetryFor(pivots []uint64, flip bool, n, k int, keep bool) Symmetry {
	if keep {
		if sym, ok := shardSymmetry(pivots, n, k); ok {
			return sym
		}
		if sym, ok := shardSymmetry([]uint64{1<<uint(n) - 1}, n, k); flip && ok {
			return sym
		}
	}
	return FullState()
}

// shardSymmetry returns the layout that stores an n-qubit state over
// the group the pivots generate on K = 2^k ranks (see Symmetry), or
// false when the ranks cannot hold it: each rank needs at least two
// amplitudes and a subchunk per rank, and the system f(w-part of μ_j) =
// (a-part of μ_j) must be solvable. Gauss–Jordan elimination keeps the
// w-parts in reduced echelon form, each row's leading bit (its highest
// on entry) set in no other row; a pivot that reduces to a zero w-part
// must reduce to a zero a-part too, and the leading bit of each row
// with a nonzero a-part becomes a relabel bit.
func shardSymmetry(pivots []uint64, n, k int) (Symmetry, bool) {
	h := len(pivots)
	local := n - h - k
	low := local - k
	if h == 0 || local < 1 || low < 0 {
		return Symmetry{}, false
	}
	sym := Symmetry{Pivots: pivots, Group: costvec.Group(pivots)}
	type row struct{ lead, w, a int }
	var rows []row
	for _, g := range pivots {
		mu := int(g) & (1<<uint(n-h) - 1)
		r := row{w: mu & (1<<uint(low) - 1), a: mu >> uint(low) & (1<<uint(k) - 1)}
		nu := mu>>uint(local)<<uint(low) | r.w
		if nu == 0 {
			return Symmetry{}, false
		}
		sym.masks = append(sym.masks, nu)
		for _, b := range rows {
			if r.w>>uint(b.lead)&1 == 1 {
				r.w, r.a = r.w^b.w, r.a^b.a
			}
		}
		if r.w == 0 {
			if r.a != 0 {
				return Symmetry{}, false
			}
			continue
		}
		r.lead = bits.Len(uint(r.w)) - 1
		for i, b := range rows {
			if b.w>>uint(r.lead)&1 == 1 {
				rows[i].w, rows[i].a = b.w^r.w, b.a^r.a
			}
		}
		rows = append(rows, r)
	}
	for _, r := range rows {
		if r.a != 0 {
			sym.bits = append(sym.bits, r.lead)
			sym.xors = append(sym.xors, r.a)
		}
	}
	return sym, true
}

// mirrorRX applies the top qubits' RX(β) of a group state, one pivot
// pass each, in pivot order (statevec.MirrorRXPlanes).
func mirrorRX[T statevec.Float](pool *statevec.Pool, s Planes[T], sym *Symmetry, beta float64) {
	for _, mu := range sym.masks {
		statevec.MirrorRXPlanes(pool, s.Re, s.Im, mu, beta)
	}
}

// walsh returns the x mixer's Walsh diagonal on rank's planes for the
// reverse step (statevec.XDiag): over the stored indices at k = 0, and
// at k > 0 in the layout a plain all-to-all leaves, where rank a holds
// stored index (r, a, w) at local index (r, w). There each pivot's
// parity mask over local indices is ν_j, and the a bits add their
// popcount to the weight and their parity with the a-part of μ_j.
func (e *Engine) walsh(rank int) statevec.XDiag {
	sym := &e.cfg.Sym
	h := len(sym.Pivots)
	d := statevec.XDiag{N: e.cfg.N, Stored: e.cfg.N - h, Masks: sym.masks, Weight: bits.OnesCount(uint(rank))}
	low := e.cfg.N - h - 2*e.k
	for j, mu := range sym.Pivots {
		a := int(mu>>uint(low)) & (e.cfg.Ranks - 1)
		d.Parity |= uint64(bits.OnesCount(uint(a&rank))&1) << uint(j)
	}
	return d
}

// alltoall runs the plain all-to-all, with no relabel, on each state in
// turn: it swaps the rank bits with the top k local bits, and is its
// own inverse.
func alltoall[T statevec.Float](c *cluster.Comm, states ...Planes[T]) error {
	for _, s := range states {
		if err := cluster.Alltoall(c, s.Re, s.Im); err != nil {
			return err
		}
	}
	return nil
}

// transpose runs the forward layer's all-to-all into the swapped
// layout. On group shards it first relabels the subchunk parts, so that
// each amplitude's pivot partners arrive on its rank.
func transpose[T statevec.Float](c *cluster.Comm, sym *Symmetry, s Planes[T]) error {
	relabel(s, sym, c.Size())
	return alltoall(c, s)
}

// transposeBack runs the all-to-all back to the rank layout, then the
// inverse relabel.
func transposeBack[T statevec.Float](c *cluster.Comm, sym *Symmetry, s Planes[T]) error {
	if err := alltoall(c, s); err != nil {
		return err
	}
	relabel(s, sym, c.Size())
	return nil
}

// relabel moves the part of each subchunk a at local index w to
// subchunk a ⊕ f(w), f the XOR of sym.xors[i] over the sym.bits[i] set
// in w, by swapping runs of 2^min(bits) amplitudes in place: it is its
// own inverse, and a no-op without relabel bits.
func relabel[T statevec.Float](s Planes[T], sym *Symmetry, ranks int) {
	if len(sym.bits) == 0 {
		return
	}
	sub := len(s.Re) / ranks
	run := 1 << uint(slices.Min(sym.bits))
	for w := 0; w < sub; w += run {
		var x int
		for i, b := range sym.bits {
			if w>>uint(b)&1 == 1 {
				x ^= sym.xors[i]
			}
		}
		for a := 0; a < ranks; a++ {
			if b := a ^ x; a < b {
				lo, hi := a*sub+w, b*sub+w
				swapRuns(s.Re[lo:lo+run], s.Re[hi:hi+run])
				swapRuns(s.Im[lo:lo+run], s.Im[hi:hi+run])
			}
		}
	}
}

func swapRuns[T statevec.Float](x, y []T) {
	for i := range x {
		x[i], y[i] = y[i], x[i]
	}
}
