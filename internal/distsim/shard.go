// The shard engine: every distributed evaluation — energy, gradient,
// outputs, sampling, checkpointed and gathered runs — is one call of
// shard.evolve per rank. A shard holds its rank's ψ and λ as split
// (re, im) planes of either precision and runs the single-node plane
// kernels on them (statevec's phase tables, tiled F = 2 layer, pivot
// kernels and joint reverse step), with the cluster collectives moving
// the same planes.
//
// Group shards (see GradEngine) hold a state stored over h pivots of
// the cost's symmetry group, 2^(n−h−k) amplitudes per rank, and run the
// top qubits n−h+j as pivot passes inside the all-to-all the x mixer
// already makes. Pivot j pairs stored index x with x ⊕ μ_j. Write a
// stored index as (r, a, w): the k rank bits, the k bits of the
// subchunk the all-to-all sends to rank a, and the n−h−2k bits w below
// them. Before the transpose each rank moves the part of subchunk a at
// w to subchunk a ⊕ f(w) (relabel), f linear in h bits of w and solved
// over GF(2) so that f(w-part of μ_j) = a-part of μ_j for every pivot.
// After the transpose, x and x ⊕ μ_j then sit on the same rank, at
// local indices (r, w) and (r, w) ⊕ ν_j, and pivot j's pass runs there
// with the local mask ν_j. The relabel is its own inverse, so the
// transpose back undoes it. The complement, μ = 1…1, gives f(w) = (K−1)
// times w's top bit: subchunks a and K−1−a swap their upper halves. At
// K = 1 the pivot passes are simply local.
package distsim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"qokit/internal/cluster"
	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/poly"
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

// symmetry is how a lease's shards store the state (shardSymmetry):
// over the group of 2^h XOR masks, with the pivot passes' local masks
// and the relabel that brings every pivot pair onto one rank.
type symmetry struct {
	// group holds the 2^h elements, indexed by their top h bits: {0}
	// on full shards.
	group []uint64
	// masks[j] is pivot j's pair mask ν_j over local indices: in the
	// transposed layout, or in the rank layout at K = 1.
	masks []int
	// The relabel moves the part of a subchunk at local index w by the
	// XOR of xors[i] over the bits[i] set in w.
	bits, xors []int
}

// pivots returns h.
func (sym *symmetry) pivots() int { return len(sym.masks) }

// shardSymmetry returns the layout that stores an n-qubit state over
// the group the pivots generate on K = 2^k ranks (see the file
// comment), or false when the ranks cannot hold it: each rank needs at
// least two amplitudes and a subchunk per rank, and the system
// f(w-part of μ_j) = (a-part of μ_j) must be solvable. Gauss–Jordan
// elimination keeps the w-parts in reduced echelon form, each row's
// leading bit (its highest on entry) set in no other row; a pivot that
// reduces to a zero w-part must reduce to a zero a-part too, and the
// leading bit of each row with a nonzero a-part becomes a relabel bit.
func shardSymmetry(pivots []uint64, n, k int) (symmetry, bool) {
	h := len(pivots)
	local := n - h - k
	low := local - k
	if h == 0 || local < 1 || low < 0 {
		return symmetry{}, false
	}
	sym := symmetry{group: costvec.Group(pivots)}
	type row struct{ lead, w, a int }
	var rows []row
	for _, g := range pivots {
		mu := int(g) & (1<<uint(n-h) - 1)
		r := row{w: mu & (1<<uint(low) - 1), a: mu >> uint(low) & (1<<uint(k) - 1)}
		nu := mu>>uint(local)<<uint(low) | r.w
		if nu == 0 {
			return symmetry{}, false
		}
		sym.masks = append(sym.masks, nu)
		for _, b := range rows {
			if r.w>>uint(b.lead)&1 == 1 {
				r.w, r.a = r.w^b.w, r.a^b.a
			}
		}
		if r.w == 0 {
			if r.a != 0 {
				return symmetry{}, false
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

// symmetryFor picks the group the shards store the state over from
// the cost's pivots and flip bit (costvec.TermPivots, or a stored
// form's), the mixer, n and k alone: the pivots when the ranks can hold
// them, else the complement when it fixes the cost (flip) and the ranks
// can hold it (2k ≤ n − 2), else the full state. Only the x mixer with
// the |+⟩ start keeps the symmetry.
func symmetryFor(pivots []uint64, flip bool, n, k int, mixer core.Mixer) symmetry {
	if mixer == core.MixerX {
		if sym, ok := shardSymmetry(pivots, n, k); ok {
			return sym
		}
		if sym, ok := shardSymmetry([]uint64{1<<uint(n) - 1}, n, k); flip && ok {
			return sym
		}
	}
	return symmetry{group: []uint64{0}}
}

// rankCostsFromTerms precomputes each rank's cost slice from the
// compiled terms (costvec.PrecomputeRange, no communication): the
// 2^(n−h−k) entries of the stored index space the rank holds, and no
// others. A NaN or ±Inf entry returns an error wrapping
// poly.ErrNonFiniteCost.
func rankCostsFromTerms(c poly.Compiled, n, k int, sym symmetry) ([]rankCost, error) {
	size := 1 << uint(n-sym.pivots()-k)
	costs := make([]rankCost, 1<<uint(k))
	for r := range costs {
		offset := uint64(r) * uint64(size)
		vals := make([]float64, size)
		costvec.PrecomputeRange(c, offset, vals)
		if err := costvec.CheckFinite(vals, offset); err != nil {
			return nil, fmt.Errorf("distsim: %w", err)
		}
		costs[r].set(offset, vals, len(sym.group))
	}
	return costs, nil
}

// rankCostsFromForm cuts each rank's cost slice out of a stored cost
// form (a registry entry's): a sub-slice of the form's float64 entries
// when the shards store the state over the form's own group, else the
// rank's entries read through the form's group (Stored.Range).
func rankCostsFromForm(form *costvec.Stored, k int, sym symmetry) []rankCost {
	size := 1 << uint(form.N-sym.pivots()-k)
	same := form.Diag != nil && slices.Equal(costvec.Group(form.Pivots), sym.group)
	costs := make([]rankCost, 1<<uint(k))
	for r := range costs {
		offset := uint64(r) * uint64(size)
		var vals []float64
		if same {
			vals = form.Diag[offset : offset+uint64(size)]
		} else {
			vals = make([]float64, size)
			form.Range(offset, vals)
		}
		costs[r].set(offset, vals, len(sym.group))
	}
	return costs
}

// set makes vals, the rank's slice at offset, its cost source. A slice
// that is an exact grid of at most 2^(n−k)/costvec.PhaseTableRatio
// levels keeps only its uint16 codes, for phase tables and every
// reduction: the single-node table bound, which counts the basis
// states a slice stands for, weight (2^h) times its entries. Any other
// slice keeps its float64 entries.
func (rc *rankCost) set(offset uint64, vals []float64, weight int) {
	rc.offset = offset
	if q, err := costvec.QuantizeExact(vals, len(vals)/costvec.PhaseTableRatio*weight); err == nil {
		rc.levels = q
	} else {
		rc.diag = vals
	}
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
			// Group shards gather the stored indices; the group fill
			// adds the rest of each orbit.
			group := sh.e.sym.group
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
// full-state amplitude on group shards too), or the Dicke state
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
		return mixerX(c, sh.psi, ph, sh.e.k, beta, &sh.e.sym)
	}
	statevec.ApplyPhasePlanes(serialPool, sh.psi.re, sh.psi.im, ph)
	return sh.mixerXY(c, beta)
}

// mixerX is Algorithm 4 on one rank's planes: the tiled F = 2 layer on
// the local qubits (with ph in its first pass when ph has a cost
// source), the all-to-all that swaps the k global qubits in at the top
// k local positions, one tiled pass over them, and the all-to-all
// back. On group shards the pivot passes run the top qubits while the
// planes are transposed (or in place at K = 1).
func mixerX[T statevec.Float](c *cluster.Comm, s planes[T], ph statevec.Phase, k int, beta float64, sym *symmetry) error {
	statevec.UniformRXPlanes(serialPool, s.re, s.im, ph, beta)
	if k == 0 {
		mirrorRX(s, sym, beta)
		return nil
	}
	if err := transpose(c, sym, s); err != nil {
		return err
	}
	localN := bits.TrailingZeros(uint(len(s.re)))
	statevec.UniformRXRangePlanes(serialPool, s.re, s.im, localN-k, localN, beta)
	mirrorRX(s, sym, beta)
	return transposeBack(c, sym, s)
}

// mirrorRX applies the top qubits' RX(β) on group shards, one pivot
// pass each, in pivot order as the single-node group state does.
func mirrorRX[T statevec.Float](s planes[T], sym *symmetry, beta float64) {
	for _, mu := range sym.masks {
		statevec.MirrorRXPlanes(serialPool, s.re, s.im, mu, beta)
	}
}

// reverseMirrorRX runs the top qubits' joint reverse steps on group
// shards, the last pivot first, and returns their Im ⟨λ|X_q|ψ⟩ over the
// stored amplitudes.
func reverseMirrorRX[T statevec.Float](lam, psi planes[T], sym *symmetry, beta float64) float64 {
	var d float64
	for j := len(sym.masks) - 1; j >= 0; j-- {
		d += statevec.ReverseMirrorRXPlanes(serialPool, lam.re, lam.im, psi.re, psi.im, sym.masks[j], beta)
	}
	return d
}

// transpose runs the all-to-all into the swapped layout on each state
// in turn. On group shards it first relabels the subchunk parts, so
// that each amplitude's pivot partners arrive on its rank.
func transpose[T statevec.Float](c *cluster.Comm, sym *symmetry, states ...planes[T]) error {
	for _, s := range states {
		relabel(s, sym, c.Size())
		if err := cluster.Alltoall(c, s.re, s.im); err != nil {
			return err
		}
	}
	return nil
}

// transposeBack runs the all-to-all back to the rank layout on each
// state in turn, then the inverse relabel.
func transposeBack[T statevec.Float](c *cluster.Comm, sym *symmetry, states ...planes[T]) error {
	for _, s := range states {
		if err := cluster.Alltoall(c, s.re, s.im); err != nil {
			return err
		}
		relabel(s, sym, c.Size())
	}
	return nil
}

// relabel moves the part of each subchunk a at local index w to
// subchunk a ⊕ f(w), f the XOR of sym.xors[i] over the sym.bits[i] set
// in w, by swapping runs of 2^min(bits) amplitudes in place: it is its
// own inverse, and a no-op without relabel bits.
func relabel[T statevec.Float](s planes[T], sym *symmetry, ranks int) {
	if len(sym.bits) == 0 {
		return
	}
	sub := len(s.re) / ranks
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
				swapRuns(s.re[lo:lo+run], s.re[hi:hi+run])
				swapRuns(s.im[lo:lo+run], s.im[hi:hi+run])
			}
		}
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
// pivot reverse steps of group shards go first, then the swapped-in
// global qubits, then the local ones: every X_q commutes with the
// layer's mixer, so reading and undoing them in any order is exact.
// Each state crosses the all-to-all twice, so a gradient moves 3× the
// forward traffic.
func (sh *shard[T]) reverse(c *cluster.Comm, ph statevec.Phase, beta float64, undo bool) (dBeta, dGamma float64, err error) {
	psi, lam, sym := sh.psi, sh.lam, &sh.e.sym
	if sh.e.opts.Mixer != core.MixerX {
		if dBeta, err = sh.reverseXY(c, beta); err != nil {
			return 0, 0, err
		}
		return dBeta, statevec.ReversePhasePlanes(serialPool, lam.re, lam.im, psi.re, psi.im, ph, undo), nil
	}
	k := sh.e.k
	if k > 0 {
		if err := transpose(c, sym, psi, lam); err != nil {
			return 0, 0, err
		}
	}
	dBeta = reverseMirrorRX(lam, psi, sym, beta)
	if k > 0 {
		localN := sh.e.localQubits()
		dBeta += statevec.ReverseRXRangePlanes(serialPool, lam.re, lam.im, psi.re, psi.im, localN-k, localN, beta)
		if err := transposeBack(c, sym, psi, lam); err != nil {
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
