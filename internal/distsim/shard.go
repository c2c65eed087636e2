// The shard engine: every distributed evaluation — energy, gradient,
// outputs, sampling, checkpointed and gathered runs — is one call of
// shard.evolve per rank. A shard holds its rank's ψ and λ as split
// (re, im) planes of either precision and runs the single-node plane
// kernels on them (statevec's phase tables, tiled F = 2 layer and joint
// reverse step), with the cluster collectives moving the same planes.
package distsim

import (
	"fmt"
	"math"
	"math/bits"

	"qokit/internal/cluster"
	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/statevec"
)

// serialPool is the inline kernel pool behind every per-rank kernel
// call: the rank goroutines are already the host's parallelism, and a
// kernel pool nested under them would oversubscribe the cores. A Pool
// is immutable configuration, so one instance serves all ranks.
var serialPool = statevec.NewPool(1)

// rankCost is one rank's slice of the cost diagonal, shared read-only
// by every lease of an engine: the float64 entries (nil on a quantized
// shard) and, when the slice is an exact grid or quantized, its level
// codes, from which every phase gathers e^{−iγ·level} out of a per-γ
// table. Levels equal the float64 entries bitwise, so both sources give
// the same states.
type rankCost struct {
	offset uint64
	diag   []float64
	levels *costvec.Quantized
}

// value returns the cost of local index i.
func (rc *rankCost) value(i int) float64 {
	if rc.diag != nil {
		return rc.diag[i]
	}
	return rc.levels.Value(i)
}

// phase returns the source of e^{−iγĈ} over the slice. With levels and
// a table buffer it rebuilds the per-γ table in tab; a nil tab gives a
// source for the reductions alone.
func (rc *rankCost) phase(gamma float64, tab []complex128) statevec.Phase {
	ph := statevec.Phase{Diag: rc.diag, Gamma: gamma}
	if q := rc.levels; q != nil {
		ph.Codes, ph.Min, ph.Scale = q.Codes, q.Min, q.Scale
		if tab != nil {
			q.PhaseTableInto(tab, gamma)
			ph.Tab = tab
		}
	}
	return ph
}

// checkFinite returns an error wrapping poly.ErrNonFiniteCost that
// names the global index of the first NaN or ±Inf entry of the ranks'
// slices of the diagonal.
func checkFinite(diags [][]float64) error {
	for r, diag := range diags {
		if err := costvec.CheckFinite(diag, uint64(r*len(diag))); err != nil {
			return fmt.Errorf("distsim: %w", err)
		}
	}
	return nil
}

// rankCosts builds each rank's cost source from its float64 slice of
// the diagonal. Without quants, a slice that is an exact grid of at
// most 2^(n−k)/core.PhaseTableRatio levels keeps its codes for phase
// tables; with quants, the uint16 codes replace the float64 entries.
func rankCosts(diags [][]float64, quants []*costvec.Quantized) []rankCost {
	costs := make([]rankCost, len(diags))
	for r, diag := range diags {
		costs[r].offset = uint64(r) * uint64(len(diag))
		if quants != nil {
			costs[r].levels = quants[r]
			continue
		}
		costs[r].diag = diag
		if q, err := costvec.QuantizeExact(diag, len(diag)/core.PhaseTableRatio); err == nil {
			costs[r].levels = q
		}
	}
	return costs
}

// planes is one split-layout state: a rank's ψ or λ, or exchange
// scratch.
type planes[T statevec.Float] struct{ re, im []T }

func newPlanes[T statevec.Float](size int) planes[T] {
	return planes[T]{re: make([]T, size), im: make([]T, size)}
}

// vec returns the planes as a complex128 vector.
func (s planes[T]) vec() statevec.Vec {
	v := make(statevec.Vec, len(s.re))
	for i := range v {
		v[i] = complex(float64(s.re[i]), float64(s.im[i]))
	}
	return v
}

// evolver is one rank's shard in either plane precision.
type evolver interface {
	evolve(c *cluster.Comm, r *run) error
}

// run is one evaluation, carried out by every rank of a lease through
// evolve: the forward layers (resumed and captured under plan), then
// each requested stage in order.
type run struct {
	gamma, beta []float64
	plan        ckptPlan
	// energy, when non-nil, receives ⟨Ĉ⟩ from one AllreduceSum.
	energy *float64
	// outputs, when non-nil, runs on every rank over its evolved shard.
	outputs func(c *cluster.Comm, v shardView) error
	// state, when non-nil, receives the gathered state vector.
	state *statevec.Vec
	// gradGamma and gradBeta, when non-nil, receive the adjoint
	// gradient from one reverse pass and one AllreduceSumVec.
	gradGamma, gradBeta []float64
}

// shard is one rank's workspace in a lease: the ket ψ, the bra λ
// (allocated by the first gradient), the xy partner-exchange scratch,
// the per-γ phase table and the gradient partials.
type shard[T statevec.Float] struct {
	e    *GradEngine
	rank int
	cost *rankCost

	psi, lam         planes[T]
	recvPsi, recvLam planes[T]
	send             planes[T]
	tab              []complex128
	flat             []float64
}

func newShard[T statevec.Float](e *GradEngine, rank int) *shard[T] {
	size := 1 << uint(e.n-e.k)
	sh := &shard[T]{e: e, rank: rank, cost: &e.costs[rank], psi: newPlanes[T](size)}
	if q := sh.cost.levels; q != nil {
		sh.tab = make([]complex128, int(q.MaxCode())+1)
	}
	if e.opts.Mixer != core.MixerX {
		sh.recvPsi = newPlanes[T](size)
		sh.send = newPlanes[T](size / 2)
	}
	return sh
}

// evolve runs r on this rank: the initial state (or the resumed one),
// the forward layers with any captures, then the energy, the outputs,
// the gather and the adjoint gradient, as r requests.
func (sh *shard[T]) evolve(c *cluster.Comm, r *run) error {
	if r.plan.resume != nil {
		loadShard(r.plan.resume, sh.rank, sh.psi.re, sh.psi.im)
	} else {
		sh.initial()
	}
	p := len(r.gamma)
	for l := r.plan.start; l < p; l++ {
		if err := sh.forward(c, r.gamma[l], r.beta[l]); err != nil {
			return err
		}
		if snap := r.plan.snap; snap != nil && ((l+1)%r.plan.every == 0 || l+1 == p) {
			storeShard(snap, sh.rank, sh.psi.re, sh.psi.im)
			if err := writeSnapshot(c, snap, l+1, r.gamma, r.beta, r.plan.path); err != nil {
				return err
			}
		}
	}
	if r.energy != nil {
		e, err := c.AllreduceSum(statevec.ExpectationPlanes(serialPool, sh.psi.re, sh.psi.im, sh.cost.phase(0, nil)))
		if err != nil {
			return err
		}
		if sh.rank == 0 {
			*r.energy = e
		}
	}
	if r.outputs != nil {
		if err := r.outputs(c, sh.view()); err != nil {
			return err
		}
	}
	if r.state != nil {
		full, err := c.AllGather(sh.psi.vec())
		if err != nil {
			return err
		}
		if sh.rank == 0 {
			*r.state = full
		}
	}
	if r.gradGamma != nil {
		return sh.adjoint(c, r)
	}
	return nil
}

// initial fills ψ with the rank's slice of the QAOA initial state: the
// uniform superposition for the transverse-field mixer, or the Dicke
// state |D^n_hw⟩ for the xy mixers — the entries whose full index
// (rank bits ‖ local index) has Hamming weight hw.
func (sh *shard[T]) initial() {
	e, re, im := sh.e, sh.psi.re, sh.psi.im
	if e.opts.Mixer == core.MixerX {
		amp := T(1 / math.Sqrt(float64(uint64(1)<<uint(e.n))))
		for i := range re {
			re[i], im[i] = amp, 0
		}
		return
	}
	need := e.hw - bits.OnesCount(uint(sh.rank))
	amp := T(1 / math.Sqrt(float64(binomial(e.n, e.hw))))
	for i := range re {
		re[i], im[i] = 0, 0
		if bits.OnesCount(uint(i)) == need {
			re[i] = amp
		}
	}
}

// forward applies one layer e^{−iβM}·e^{−iγĈ} to ψ.
func (sh *shard[T]) forward(c *cluster.Comm, gamma, beta float64) error {
	ph := sh.cost.phase(gamma, sh.tab)
	if sh.e.opts.Mixer == core.MixerX {
		return mixerX(c, sh.psi, ph, sh.e.k, beta)
	}
	statevec.ApplyPhasePlanes(serialPool, sh.psi.re, sh.psi.im, ph)
	return sh.mixerXY(c, beta)
}

// mixerX is Algorithm 4 on one rank's planes: the tiled F = 2 layer on
// the n−k local qubits (with ph in its first pass when ph has a cost
// source), the all-to-all that swaps the k global qubits in at local
// positions n−2k…n−k−1, one tiled pass over them, and the all-to-all
// back.
func mixerX[T statevec.Float](c *cluster.Comm, s planes[T], ph statevec.Phase, k int, beta float64) error {
	statevec.UniformRXPlanes(serialPool, s.re, s.im, ph, beta)
	if k == 0 {
		return nil
	}
	if err := cluster.Alltoall(c, s.re, s.im); err != nil {
		return err
	}
	localN := bits.TrailingZeros(uint(len(s.re)))
	statevec.UniformRXRangePlanes(serialPool, s.re, s.im, localN-k, localN, beta)
	return cluster.Alltoall(c, s.re, s.im)
}

// adjoint seeds λ = Ĉψ and walks both states back through every layer,
// reading ∂E/∂β_ℓ and ∂E/∂γ_ℓ off the reverse steps; one vector
// all-reduce combines the rank-local partials.
func (sh *shard[T]) adjoint(c *cluster.Comm, r *run) error {
	size := len(sh.psi.re)
	if sh.lam.re == nil {
		sh.lam = newPlanes[T](size)
		if sh.e.opts.Mixer != core.MixerX {
			sh.recvLam = newPlanes[T](size)
		}
	}
	copy(sh.lam.re, sh.psi.re)
	copy(sh.lam.im, sh.psi.im)
	statevec.MulDiagPlanes(serialPool, sh.lam.re, sh.lam.im, sh.cost.phase(0, nil))
	p := len(r.gamma)
	if cap(sh.flat) < 2*p {
		sh.flat = make([]float64, 2*p)
	}
	flat := sh.flat[:2*p]
	for l := p - 1; l >= 0; l-- {
		// The phase undo is skipped on the last step, where no earlier
		// derivative needs the states, so that step needs no table.
		undo := l > 0
		var tab []complex128
		if undo {
			tab = sh.tab
		}
		dBeta, dGamma, err := sh.reverse(c, sh.cost.phase(r.gamma[l], tab), r.beta[l], undo)
		if err != nil {
			return err
		}
		flat[l], flat[p+l] = 2*dGamma, 2*dBeta
	}
	if err := c.AllreduceSumVec(flat); err != nil {
		return err
	}
	if sh.rank == 0 {
		copy(r.gradGamma, flat[:p])
		copy(r.gradBeta, flat[p:])
	}
	return nil
}

// reverse walks ψ and λ back through one layer and returns this rank's
// shares of Im ⟨λ|M|ψ⟩ and Im ⟨λ|Ĉ|ψ⟩, undoing the phase only when
// undo is set. For the x mixer the swapped-in global qubits go first:
// every X_q commutes with the layer's mixer, so reading and undoing
// them before the local qubits is exact. Each state crosses the
// all-to-all twice, so a gradient moves 3× the forward traffic.
func (sh *shard[T]) reverse(c *cluster.Comm, ph statevec.Phase, beta float64, undo bool) (dBeta, dGamma float64, err error) {
	psi, lam := sh.psi, sh.lam
	if sh.e.opts.Mixer != core.MixerX {
		if dBeta, err = sh.reverseXY(c, beta); err != nil {
			return 0, 0, err
		}
		return dBeta, statevec.ReversePhasePlanes(serialPool, lam.re, lam.im, psi.re, psi.im, ph, undo), nil
	}
	if k := sh.e.k; k > 0 {
		localN := sh.e.n - k
		if err := alltoallPair(c, psi, lam); err != nil {
			return 0, 0, err
		}
		dBeta = statevec.ReverseRXRangePlanes(serialPool, lam.re, lam.im, psi.re, psi.im, localN-k, localN, beta)
		if err := alltoallPair(c, psi, lam); err != nil {
			return 0, 0, err
		}
	}
	mixer, phase := statevec.ReverseUniformRXPlanes(serialPool, lam.re, lam.im, psi.re, psi.im, beta, ph, undo)
	return dBeta + mixer, phase, nil
}

// alltoallPair transposes ψ, then λ.
func alltoallPair[T statevec.Float](c *cluster.Comm, psi, lam planes[T]) error {
	if err := cluster.Alltoall(c, psi.re, psi.im); err != nil {
		return err
	}
	return cluster.Alltoall(c, lam.re, lam.im)
}

// mixerXY applies one Trotter step of an xy mixer to ψ, sweeping edges
// in the exact single-node order (core.MixerSweepEdges). Local edges
// run the single-node kernel; an edge touching a global qubit pairs
// each selected amplitude with one on its partner rank (remoteEdge).
func (sh *shard[T]) mixerXY(c *cluster.Comm, beta float64) error {
	e, psi := sh.e, sh.psi
	localN := e.n - e.k
	sn64, cs64 := math.Sincos(beta)
	cs, sn := T(cs64), T(sn64)
	for _, edge := range e.edges {
		u, v := orderEdge(edge)
		if v < localN {
			statevec.ApplyXYPlanes(serialPool, psi.re, psi.im, u, v, beta)
			continue
		}
		re := xyEdgePlan(sh.rank, localN, u, v)
		rp, err := sh.exchange(c, psi, sh.recvPsi, re)
		if err != nil {
			return err
		}
		re.forPairs(len(psi.re), func(x, j int) { rotatePair(psi, rp, x, j, cs, sn) })
	}
	return nil
}

// reverseXY interleaves one edge reduction with one edge undo in
// reverse application order (the xy factors do not commute), exactly
// as the single-node engine does. Each global-touching edge exchanges
// both states with the partner rank — the forward exchange, twice — so
// a gradient moves 3× the forward traffic here too.
func (sh *shard[T]) reverseXY(c *cluster.Comm, beta float64) (float64, error) {
	e, psi, lam := sh.e, sh.psi, sh.lam
	localN := e.n - e.k
	sn64, cs64 := math.Sincos(-beta)
	cs, sn := T(cs64), T(sn64)
	var d float64
	for i := len(e.edges) - 1; i >= 0; i-- {
		u, v := orderEdge(e.edges[i])
		if v < localN {
			d += statevec.ReverseXYPlanes(serialPool, lam.re, lam.im, psi.re, psi.im, u, v, beta)
			continue
		}
		re := xyEdgePlan(sh.rank, localN, u, v)
		rp, err := sh.exchange(c, psi, sh.recvPsi, re)
		if err != nil {
			return 0, err
		}
		rl, err := sh.exchange(c, lam, sh.recvLam, re)
		if err != nil {
			return 0, err
		}
		re.forPairs(len(psi.re), func(x, j int) {
			d += float64(lam.re[x])*float64(rp.im[j]) - float64(lam.im[x])*float64(rp.re[j])
			rotatePair(psi, rp, x, j, cs, sn)
			rotatePair(lam, rl, x, j, cs, sn)
		})
	}
	return d, nil
}

// exchange sends this rank's side of a global-touching edge to the
// partner and receives the partner's side into recv, returning the
// received planes. A half-remote edge moves only the selected
// half-slice, packed in ascending index order into the send scratch; a
// fully global edge moves the full slice. Sendrecv's closing barrier
// makes reusing the send scratch across calls safe.
func (sh *shard[T]) exchange(c *cluster.Comm, s, recv planes[T], re remoteEdge) (planes[T], error) {
	if re.uMask == 0 {
		return recv, cluster.Sendrecv(c, re.partner, s.re, s.im, recv.re, recv.im)
	}
	half := len(s.re) / 2
	send := planes[T]{sh.send.re[:half], sh.send.im[:half]}
	re.forPairs(len(s.re), func(x, j int) { send.re[j], send.im[j] = s.re[x], s.im[x] })
	got := planes[T]{recv.re[:half], recv.im[:half]}
	return got, cluster.Sendrecv(c, re.partner, send.re, send.im, got.re, got.im)
}

// rotatePair rotates local amplitude x against the partner's amplitude
// j by [[cos β, −i sin β], [−i sin β, cos β]], writing only the local
// side — the partner rank runs the same update for its side. In real
// arithmetic: re' = c·re + s·im_remote, im' = c·im − s·re_remote, the
// arithmetic of the single-node split-layout xy kernel.
func rotatePair[T statevec.Float](s, remote planes[T], x, j int, cs, sn T) {
	r, m := s.re[x], s.im[x]
	s.re[x] = cs*r + sn*remote.im[j]
	s.im[x] = cs*m - sn*remote.re[j]
}

// view is the output stage's read-only view of the evolved ψ.
func (sh *shard[T]) view() shardView {
	re, im := sh.psi.re, sh.psi.im
	localN := sh.e.n - sh.e.k
	return shardView{
		size: len(re), localN: localN, offset: sh.cost.offset,
		restrict: sh.e.opts.Mixer != core.MixerX, hw: sh.e.hw,
		prob: func(i int) float64 {
			r, m := float64(re[i]), float64(im[i])
			return r*r + m*m
		},
		cost: sh.cost.value,
	}
}
