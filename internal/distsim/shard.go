// The shard engine: every distributed evaluation — energy, gradient,
// outputs, sampling, checkpointed and gathered runs — is one call of
// shard.evolve per rank. A shard holds its rank's ψ and λ as split
// (re, im) planes of either precision and runs the single-node plane
// kernels on them (statevec's phase tables, tiled F = 2 layer, mirror
// kernels and joint reverse step), with the cluster collectives moving
// the same planes.
//
// A half shard (see GradEngine) holds the representatives x < 2^(n−1)
// of a flip-symmetric state, 2^(n−1−k) per rank, and runs qubit n−1 as
// the mirror kernel inside the all-to-all the x mixer already makes:
// before the transpose each rank swaps the upper halves of its
// subchunks s and K−1−s (swapMirrorHalves), so that after it every
// amplitude's mirror partner 2^(n−1)−1−x sits at its local complement
// on the same rank. The swap needs 2k ≤ n−2, so that a subchunk has an
// upper half. At K = 1 the mirror pass is simply local.
package distsim

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"qokit/internal/cluster"
	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/statevec"
)

// serialPool is the inline kernel pool behind every per-rank kernel
// call: the rank goroutines are already the host's parallelism, and a
// kernel pool nested under them would oversubscribe the cores. A Pool
// is immutable configuration, so one instance serves all ranks.
var serialPool = statevec.NewPool(1)

// rankCost is one rank's slice of the cost diagonal, shared read-only
// by every lease of an engine: either the float64 entries or, when the
// slice is an exact grid, its level codes alone, from which every phase
// gathers e^{−iγ·level} out of a per-γ table and every reduction reads
// Min + Scale·code. Levels equal the float64 entries bitwise, so both
// forms give the same states and outputs. Each rank has its own (Min,
// Scale): no cross-rank step compares codes.
type rankCost struct {
	offset uint64
	diag   []float64
	levels *costvec.Quantized
	// order holds the local indices by ascending cost, ties by index,
	// built by the first CVaR; once keeps that build safe when two
	// leases compute CVaR at once.
	once  sync.Once
	order []int
}

// value returns the cost of local index i.
func (rc *rankCost) value(i int) float64 {
	if rc.diag != nil {
		return rc.diag[i]
	}
	return rc.levels.Value(i)
}

// ascending returns the slice's local indices by ascending cost, ties
// by index, sorting them on first use (costvec.Ascending, a counting
// sort on a coded slice): the cost order is fixed per engine, so every
// later CVaR only filters and sums along it.
func (rc *rankCost) ascending() []int {
	rc.once.Do(func() { rc.order = costvec.Ascending(rc.diag, rc.levels) })
	return rc.order
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

// cutShards scans the full diagonal once with costvec.CheckDiagonal,
// rejecting NaN/±Inf and testing flip symmetry, and cuts each rank's
// cost slice: 2^(n−k) entries of the whole diagonal, or on half shards
// 2^(n−1−k) entries of its first half. Half shards take the
// single-node rule restricted to the complement, plus the room the
// mirror swap needs: the x mixer, 2k ≤ n−2 (so n ≥ 2) and a bitwise
// flip-symmetric diagonal.
func cutShards(full []float64, n, k int, opts Options) (diags [][]float64, half bool, err error) {
	symmetric, err := costvec.CheckDiagonal(full)
	if err != nil {
		return nil, false, fmt.Errorf("distsim: %w", err)
	}
	half = symmetric && opts.Mixer == core.MixerX && 2*k <= n-2
	size := len(full) >> uint(k)
	if half {
		size /= 2
	}
	diags = make([][]float64, opts.Ranks)
	for r := range diags {
		diags[r] = full[r*size : (r+1)*size]
	}
	return diags, half, nil
}

// rankCosts builds each rank's cost source from its float64 slice of
// the diagonal. A slice that is an exact grid of at most
// 2^(n−k)/core.PhaseTableRatio levels keeps only its uint16 codes, for
// phase tables and every reduction: the single-node table bound, which
// on half shards counts the basis states a slice stands for, twice its
// entries. Any other slice keeps its float64 entries.
func rankCosts(diags [][]float64, half bool) []rankCost {
	costs := make([]rankCost, len(diags))
	for r, diag := range diags {
		costs[r].offset = uint64(r) * uint64(len(diag))
		maxLevels := len(diag) / core.PhaseTableRatio
		if half {
			maxLevels *= 2
		}
		if q, err := costvec.QuantizeExact(diag, maxLevels); err == nil {
			costs[r].levels = q
		} else {
			costs[r].diag = diag
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
	outputs func(c *cluster.Comm, v evaluator.View) error
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
	size := 1 << uint(e.localQubits())
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
		sh.load(r.plan.resume)
	} else {
		sh.initial()
	}
	p := len(r.gamma)
	for l := r.plan.start; l < p; l++ {
		if err := sh.forward(c, r.gamma[l], r.beta[l]); err != nil {
			return err
		}
		if snap := r.plan.snap; snap != nil && ((l+1)%r.plan.every == 0 || l+1 == p) {
			sh.store(snap)
			if err := writeSnapshot(c, snap, l+1, r.gamma, r.beta, r.plan.path); err != nil {
				return err
			}
		}
	}
	if r.energy != nil {
		e, err := c.AllreduceSum(sh.e.weight() * statevec.ExpectationPlanes(serialPool, sh.psi.re, sh.psi.im, sh.cost.phase(0, nil)))
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
			// A half shard's gather holds the representatives; the group
			// fill adds their mirrors.
			group := sh.e.group
			full = append(full, make(statevec.Vec, (len(group)-1)*len(full))...)
			evaluator.FillGroup(full, group)
			*r.state = full
		}
	}
	if r.gradGamma != nil {
		return sh.adjoint(c, r)
	}
	return nil
}

// initial fills ψ with the rank's slice of the QAOA initial state: the
// uniform superposition for the transverse-field mixer (with the
// full-state amplitude on a half shard too), or the Dicke state
// |D^n_hw⟩ for the xy mixers — the entries whose full index (rank bits
// ‖ local index) has Hamming weight hw.
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
		return mixerX(c, sh.psi, ph, sh.e.k, beta, sh.e.half)
	}
	statevec.ApplyPhasePlanes(serialPool, sh.psi.re, sh.psi.im, ph)
	return sh.mixerXY(c, beta)
}

// mixerX is Algorithm 4 on one rank's planes: the tiled F = 2 layer on
// the local qubits (with ph in its first pass when ph has a cost
// source), the all-to-all that swaps the k global qubits in at the top
// k local positions, one tiled pass over them, and the all-to-all
// back. On a half shard the mirror kernel runs qubit n−1 while the
// planes are transposed (or in place at K = 1).
func mixerX[T statevec.Float](c *cluster.Comm, s planes[T], ph statevec.Phase, k int, beta float64, half bool) error {
	statevec.UniformRXPlanes(serialPool, s.re, s.im, ph, beta)
	if k == 0 {
		if half {
			statevec.MirrorRXPlanes(serialPool, s.re, s.im, len(s.re)-1, beta)
		}
		return nil
	}
	if err := transpose(c, half, s); err != nil {
		return err
	}
	localN := bits.TrailingZeros(uint(len(s.re)))
	statevec.UniformRXRangePlanes(serialPool, s.re, s.im, localN-k, localN, beta)
	if half {
		statevec.MirrorRXPlanes(serialPool, s.re, s.im, len(s.re)-1, beta)
	}
	return transposeBack(c, half, s)
}

// transpose runs the all-to-all into the swapped layout on each state
// in turn. On a half shard it first swaps the mirror halves, so that
// each amplitude's mirror partner arrives at its local complement.
func transpose[T statevec.Float](c *cluster.Comm, half bool, states ...planes[T]) error {
	for _, s := range states {
		if half {
			swapMirrorHalves(s, c.Size())
		}
		if err := cluster.Alltoall(c, s.re, s.im); err != nil {
			return err
		}
	}
	return nil
}

// transposeBack runs the all-to-all back to the rank layout on each
// state in turn, then on a half shard the inverse swap.
func transposeBack[T statevec.Float](c *cluster.Comm, half bool, states ...planes[T]) error {
	for _, s := range states {
		if err := cluster.Alltoall(c, s.re, s.im); err != nil {
			return err
		}
		if half {
			swapMirrorHalves(s, c.Size())
		}
	}
	return nil
}

// swapMirrorHalves exchanges the upper halves of subchunks a and
// K−1−a of a half shard's planes, for every a < K/2; it is its own
// inverse. Subchunk a holds the amplitudes destined for rank a, and the
// mirror of a representative in the lower half of rank r's subchunk a
// lies in the upper half of rank K−1−r's subchunk K−1−a. After the swap
// both travel to rank a, where they land at complementary local
// indices.
func swapMirrorHalves[T statevec.Float](s planes[T], ranks int) {
	sub := len(s.re) / ranks
	h := sub / 2
	for a := 0; a < ranks/2; a++ {
		lo, hi := a*sub+h, (ranks-1-a)*sub+h
		swapRuns(s.re[lo:lo+h], s.re[hi:hi+h])
		swapRuns(s.im[lo:lo+h], s.im[hi:hi+h])
	}
}

func swapRuns[T statevec.Float](x, y []T) {
	for i := range x {
		x[i], y[i] = y[i], x[i]
	}
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
	scale := 2 * sh.e.weight()
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
		flat[l], flat[p+l] = scale*dGamma, scale*dBeta
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
// shares of Im ⟨λ|M|ψ⟩ and Im ⟨λ|Ĉ|ψ⟩ over its stored amplitudes,
// undoing the phase only when undo is set. For the x mixer the joint
// mirror reverse of a half shard goes first, then the swapped-in global
// qubits, then the local ones: every X_q commutes with the layer's
// mixer, so reading and undoing them in any order is exact. Each state
// crosses the all-to-all twice, so a gradient moves 3× the forward
// traffic.
func (sh *shard[T]) reverse(c *cluster.Comm, ph statevec.Phase, beta float64, undo bool) (dBeta, dGamma float64, err error) {
	psi, lam, half := sh.psi, sh.lam, sh.e.half
	if sh.e.opts.Mixer != core.MixerX {
		if dBeta, err = sh.reverseXY(c, beta); err != nil {
			return 0, 0, err
		}
		return dBeta, statevec.ReversePhasePlanes(serialPool, lam.re, lam.im, psi.re, psi.im, ph, undo), nil
	}
	k := sh.e.k
	if k > 0 {
		if err := transpose(c, half, psi, lam); err != nil {
			return 0, 0, err
		}
	}
	if half {
		dBeta = statevec.ReverseMirrorRXPlanes(serialPool, lam.re, lam.im, psi.re, psi.im, len(lam.re)-1, beta)
	}
	if k > 0 {
		localN := sh.e.localQubits()
		dBeta += statevec.ReverseRXRangePlanes(serialPool, lam.re, lam.im, psi.re, psi.im, localN-k, localN, beta)
		if err := transposeBack(c, half, psi, lam); err != nil {
			return 0, 0, err
		}
	}
	mixer, phase := statevec.ReverseUniformRXPlanes(serialPool, lam.re, lam.im, psi.re, psi.im, beta, ph, undo)
	return dBeta + mixer, phase, nil
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
