package shard

import (
	"math"

	"qokit/internal/cluster"
	"qokit/internal/graphs"
	"qokit/internal/statevec"
)

// The xy mixers sweep their edge list in the given order (the xy
// factors on edges sharing a qubit do not commute). An edge between
// local qubits runs the split-plane edge kernel; an edge touching a
// global qubit couples each amplitude to one on exactly one partner
// rank (the rank id with that qubit's bit flipped), so it costs one
// point-to-point slice exchange (cluster.Sendrecv, the cuStateVec
// index-bit-swap pattern) instead of an all-to-all. At k = 0 every edge
// is local.

// orderEdge returns the edge's qubits with u < v (the xy factor is
// symmetric in its qubits, so normalizing loses nothing).
func orderEdge(e graphs.Edge) (u, v int) {
	if e.U < e.V {
		return e.U, e.V
	}
	return e.V, e.U
}

// remoteEdge is one rank's side of an xy edge with at least one global
// qubit: the partner rank holding the paired amplitudes, the
// local-index bit flip between pair halves (uMask, 0 when both qubits
// are global), and the value x & uMask of the local entries this rank
// owns and updates (selVal). partner < 0 means the edge acts as the
// identity on this rank's amplitudes (both of the edge's rank bits
// agree: the |00⟩/|11⟩ subspace); such ranks still join the exchange's
// synchronization but move no data.
//
// The xy factor rotates each (|…1_u…0_v…⟩, |…0_u…1_v…⟩) amplitude
// pair by the symmetric matrix [[cos β, −i sin β], [−i sin β, cos β]]
// — symmetry is what lets one formula (local ← c·local + s·remote)
// cover both halves of every pair.
type remoteEdge struct{ partner, uMask, selVal int }

// xyEdgePlan maps an xy edge with at least one global qubit
// (u < v, v ≥ localN) onto this rank's exchange.
func xyEdgePlan(rank, localN, u, v int) remoteEdge {
	jb := 1 << uint(v-localN)
	if u < localN {
		// Half-remote: u stays a local bit, v is rank bit j. A rank
		// with v-bit b owns the pair halves whose u-bit is 1−b.
		re := remoteEdge{partner: rank ^ jb, uMask: 1 << uint(u)}
		if rank&jb == 0 {
			re.selVal = re.uMask
		}
		return re
	}
	ib := 1 << uint(u-localN)
	if (rank&ib != 0) == (rank&jb != 0) {
		return remoteEdge{partner: -1}
	}
	// Both qubits are rank bits: the paired amplitude sits at the same
	// local index on the rank with both bits flipped.
	return remoteEdge{partner: rank ^ ib ^ jb}
}

// forPairs calls fn(x, j) for every local index x this rank updates,
// in ascending order, with j the index of x's partner amplitude in the
// received planes: the packed position for a half-remote edge (both
// sides share every index bit except u, so ascending order on the
// sender lines up with the receiver's), x itself for a fully global
// one.
func (re remoteEdge) forPairs(size int, fn func(x, j int)) {
	if re.partner < 0 {
		return
	}
	j := 0
	for x := re.selVal; x < size; x++ {
		if x&re.uMask == re.selVal {
			fn(x, j)
			j++
		}
	}
}

// mixerXY applies one Trotter step of an xy mixer to ψ.
func (s *State[T]) mixerXY(c *cluster.Comm, beta float64) error {
	e, psi := s.e, s.psi
	localN := e.cfg.N - e.k
	sn64, cs64 := math.Sincos(beta)
	cs, sn := T(cs64), T(sn64)
	for _, edge := range e.cfg.Edges {
		u, v := orderEdge(edge)
		if v < localN {
			statevec.ApplyXYPlanes(e.cfg.Pool, psi.Re, psi.Im, u, v, beta)
			continue
		}
		re := xyEdgePlan(s.rank, localN, u, v)
		rp, err := s.exchange(c, psi, s.recvPsi, re)
		if err != nil {
			return err
		}
		re.forPairs(len(psi.Re), func(x, j int) { rotatePair(psi, rp, x, j, cs, sn) })
	}
	return nil
}

// reverseXY interleaves one edge reduction with one edge undo in
// reverse application order. Each global-touching edge exchanges both
// states with the partner rank — the forward exchange, twice — so a
// gradient moves 3× the forward traffic here too.
func (s *State[T]) reverseXY(c *cluster.Comm, beta float64) (float64, error) {
	e, psi, lam := s.e, s.psi, s.lam
	localN := e.cfg.N - e.k
	sn64, cs64 := math.Sincos(-beta)
	cs, sn := T(cs64), T(sn64)
	var d float64
	for i := len(e.cfg.Edges) - 1; i >= 0; i-- {
		u, v := orderEdge(e.cfg.Edges[i])
		if v < localN {
			d += statevec.ReverseXYPlanes(e.cfg.Pool, lam.Re, lam.Im, psi.Re, psi.Im, u, v, beta)
			continue
		}
		re := xyEdgePlan(s.rank, localN, u, v)
		rp, err := s.exchange(c, psi, s.recvPsi, re)
		if err != nil {
			return 0, err
		}
		rl, err := s.exchange(c, lam, s.recvLam, re)
		if err != nil {
			return 0, err
		}
		re.forPairs(len(psi.Re), func(x, j int) {
			d += float64(lam.Re[x])*float64(rp.Im[j]) - float64(lam.Im[x])*float64(rp.Re[j])
			rotatePair(psi, rp, x, j, cs, sn)
			rotatePair(lam, rl, x, j, cs, sn)
		})
	}
	return d, nil
}

// exchange sends this rank's side of a global-touching edge to the
// partner and receives the partner's side into recv, returning the
// received planes. A half-remote edge moves only the selected
// half-slice, packed in ascending index order into the send buffer; a
// fully global edge moves the full slice. Sendrecv's closing barrier
// makes reusing the send buffer across calls safe.
func (s *State[T]) exchange(c *cluster.Comm, st, recv Planes[T], re remoteEdge) (Planes[T], error) {
	if re.uMask == 0 {
		return recv, cluster.Sendrecv(c, re.partner, st.Re, st.Im, recv.Re, recv.Im)
	}
	half := len(st.Re) / 2
	send := Planes[T]{s.send.Re[:half], s.send.Im[:half]}
	re.forPairs(len(st.Re), func(x, j int) { send.Re[j], send.Im[j] = st.Re[x], st.Im[x] })
	got := Planes[T]{recv.Re[:half], recv.Im[:half]}
	return got, cluster.Sendrecv(c, re.partner, send.Re, send.Im, got.Re, got.Im)
}

// rotatePair rotates local amplitude x against the partner's amplitude
// j by [[cos β, −i sin β], [−i sin β, cos β]], writing only the local
// side — the partner rank runs the same update for its side. In real
// arithmetic: re' = c·re + s·im_remote, im' = c·im − s·re_remote, the
// arithmetic of the split-plane edge kernel.
func rotatePair[T statevec.Float](s, remote Planes[T], x, j int, cs, sn T) {
	r, m := s.Re[x], s.Im[x]
	s.Re[x] = cs*r + sn*remote.Im[j]
	s.Im[x] = cs*m - sn*remote.Re[j]
}
