// Distributed adjoint-mode gradients: the exact ∂E/∂γ_ℓ, ∂E/∂β_ℓ of
// the QAOA objective, evaluated on the state vector sharded over the
// in-process cluster. The algorithm is core.SimulateQAOAGradInto run
// per rank: one forward pass fills the sharded ket ψ, the bra is
// seeded locally as λ = Ĉψ (the diagonal is already sharded), and both
// states walk backwards through exact layer inverses with every
// reduction evaluated on the local slice — the PR 2 derivative kernels
// ImDotDiag/ImDotXAll (plus ImDotXRange for the transposed global
// qubits, and the partner-exchange xy reductions). Per-layer partials
// accumulate rank-locally; one vector all-reduce
// (cluster.Comm.AllreduceSumVec) at the end combines all 2p of them.
//
// Communication therefore stays mixer-shaped: the reverse pass replays
// the forward mixer's collectives once per state (two states ⇒ exactly
// 3× the forward mixer traffic in bytes and messages), and the only
// additions are the energy's scalar all-reduce and the gradient's one
// vector all-reduce — both accounted as synchronization, not payload.
// This is the paper's locality analysis (§III-C) carried over to the
// reverse pass: phase, diagonal seeding, and every derivative
// reduction are communication-free.
package distsim

import (
	"context"
	"fmt"
	"math"
	"sync"

	"qokit/internal/cluster"
	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/statevec"
)

// GradEngine evaluates distributed energies and exact adjoint
// gradients for one problem instance. The per-rank diagonal slices are
// precomputed once and shared read-only; everything an in-flight
// evaluation mutates — the cluster rank group and the per-rank state,
// scratch, and partial buffers — is bundled into a lease. The engine
// keeps up to Options.Concurrency leases (default 1), so it IS safe
// for concurrent use: each evaluation checks out its own rank group,
// runs the full collective pipeline on it, and returns it warm for the
// next evaluation. This is what lifts the old single-flight
// restriction — two optimizers (or one serving layer's workers) drive
// the same engine and their rank groups interleave on the host like
// two jobs on a real cluster. A warmed-up loop still performs no
// per-evaluation state-vector allocations; memory grows linearly with
// Concurrency, not with call rate.
type GradEngine struct {
	n, k, hw int
	opts     Options
	edges    []graphs.Edge

	// diags is shared read-only by every lease (nil with Quantize,
	// whose shards live in quants instead).
	diags [][]float64
	// quants holds the per-rank uint16-quantized diagonal shards, all
	// coded against one globally agreed (min, scale) — 2 B per
	// amplitude instead of 8 (§V-B). Nil unless Options.Quantize.
	quants []*costvec.Quantized

	// slots holds one token per allowed concurrent evaluation; a nil
	// token means the lease is allocated on first use. Leases poisoned
	// by cancellation are dropped and their token returns as nil again.
	slots chan *gradLease

	// mu guards the lease registry and the dead-lease counter
	// snapshots. all holds only live leases; a lease discarded after
	// cancellation folds its counters into deadTotal/deadRank and is
	// dropped, so its state buffers are released to the GC instead of
	// pinning state-vector-scale memory per cancellation.
	mu        sync.Mutex
	all       []*gradLease
	deadTotal cluster.Counters
	deadRank  []cluster.Counters
}

// gradLease is one evaluation's worth of mutable distributed state:
// a rank group plus per-rank adjoint pair, xy exchange scratch, and
// gradient-partial buffers.
type gradLease struct {
	group *cluster.Group
	psi   []statevec.Vec
	lam   []statevec.Vec
	// recvPsi/recvLam/send are the per-rank Sendrecv scratch slices the
	// xy partner exchanges use (nil for the transverse-field mixer,
	// whose collectives are in-place all-to-alls). send is half-slice
	// sized: half-remote edges pack and exchange only the selected
	// half.
	recvPsi []statevec.Vec
	recvLam []statevec.Vec
	send    []statevec.Vec
	// psi32/lam32 and the f32 scratch pairs are the single-precision
	// counterparts, allocated instead of the complex128 buffers when
	// Options.Precision is PrecisionFloat32 — half the lease memory.
	psi32     []*statevec.SoA32
	lam32     []*statevec.SoA32
	recvPsi32 []f32buf
	recvLam32 []f32buf
	send32    []f32buf
	// flat is the per-rank [∂γ…, ∂β…] partial buffer the final vector
	// all-reduce combines, grown to 2p on first use.
	flat [][]float64
}

// NewGradEngine builds a distributed gradient engine for an n-qubit
// problem given as polynomial terms: each rank's diagonal slice is
// precomputed locally (no communication). Rank groups and state
// buffers are leased per evaluation, up to Options.Concurrency in
// flight at once.
func NewGradEngine(n int, terms poly.Terms, opts Options) (*GradEngine, error) {
	if err := terms.Validate(n); err != nil {
		return nil, err
	}
	k, err := opts.validate(n)
	if err != nil {
		return nil, err
	}
	edges, err := core.MixerSweepEdges(n, opts.Mixer)
	if err != nil {
		return nil, err
	}
	compiled := poly.Compile(terms)
	localN := n - k
	localSize := 1 << uint(localN)
	e := &GradEngine{
		n: n, k: k, hw: opts.hammingWeight(n),
		opts:     opts,
		edges:    edges,
		slots:    make(chan *gradLease, opts.concurrency()),
		deadRank: make([]cluster.Counters, opts.Ranks),
	}
	for i := 0; i < opts.concurrency(); i++ {
		e.slots <- nil
	}
	if opts.Quantize {
		// Each rank precomputes its float64 shard as scratch, runs the
		// global (min, scale) agreement pre-pass, and keeps only the
		// uint16 codes — the engine never stores a float64 diagonal.
		e.quants = make([]*costvec.Quantized, opts.Ranks)
		qg, err := cluster.NewGroup(opts.Ranks, opts.Algo)
		if err != nil {
			return nil, err
		}
		qg.SetFault(opts.Fault)
		if err := qg.Run(func(c *cluster.Comm) error {
			shard := make([]float64, localSize)
			costvec.PrecomputeRange(compiled, uint64(c.Rank())<<uint(localN), shard)
			q, err := agreeQuantization(c, shard, opts.QuantScale)
			if err != nil {
				return err
			}
			if q != nil {
				e.quants[c.Rank()] = q
			}
			return nil
		}); err != nil {
			return nil, err
		}
		return e, nil
	}
	e.diags = make([][]float64, opts.Ranks)
	for r := 0; r < opts.Ranks; r++ {
		diag := make([]float64, localSize)
		costvec.PrecomputeRange(compiled, uint64(r)<<uint(localN), diag)
		e.diags[r] = diag
	}
	return e, nil
}

// newLease allocates one evaluation's rank group and buffers and
// registers it for counter aggregation.
func (e *GradEngine) newLease() (*gradLease, error) {
	g, err := cluster.NewGroup(e.opts.Ranks, e.opts.Algo)
	if err != nil {
		return nil, err
	}
	g.SetFault(e.opts.Fault)
	localN := e.n - e.k
	localSize := 1 << uint(localN)
	l := &gradLease{
		group: g,
		flat:  make([][]float64, e.opts.Ranks),
	}
	xy := e.opts.Mixer != core.MixerX
	if e.opts.Precision == PrecisionFloat32 {
		l.psi32 = make([]*statevec.SoA32, e.opts.Ranks)
		l.lam32 = make([]*statevec.SoA32, e.opts.Ranks)
		if xy {
			l.recvPsi32 = make([]f32buf, e.opts.Ranks)
			l.recvLam32 = make([]f32buf, e.opts.Ranks)
			l.send32 = make([]f32buf, e.opts.Ranks)
		}
		for r := 0; r < e.opts.Ranks; r++ {
			l.psi32[r] = statevec.NewSoA32(localN)
			l.lam32[r] = statevec.NewSoA32(localN)
			if xy {
				l.recvPsi32[r] = newF32buf(localSize)
				l.recvLam32[r] = newF32buf(localSize)
				l.send32[r] = newF32buf(localSize / 2)
			}
		}
	} else {
		l.psi = make([]statevec.Vec, e.opts.Ranks)
		l.lam = make([]statevec.Vec, e.opts.Ranks)
		if xy {
			l.recvPsi = make([]statevec.Vec, e.opts.Ranks)
			l.recvLam = make([]statevec.Vec, e.opts.Ranks)
			l.send = make([]statevec.Vec, e.opts.Ranks)
		}
		for r := 0; r < e.opts.Ranks; r++ {
			l.psi[r] = make(statevec.Vec, localSize)
			l.lam[r] = make(statevec.Vec, localSize)
			if xy {
				l.recvPsi[r] = make(statevec.Vec, localSize)
				l.recvLam[r] = make(statevec.Vec, localSize)
				l.send[r] = make(statevec.Vec, localSize/2)
			}
		}
	}
	e.mu.Lock()
	e.all = append(e.all, l)
	e.mu.Unlock()
	return l, nil
}

// acquire checks out a lease (allocating it on first use), or returns
// early when ctx is cancelled while every lease is busy.
func (e *GradEngine) acquire(ctx context.Context) (*gradLease, error) {
	select {
	case l := <-e.slots:
		if l == nil {
			var err error
			if l, err = e.newLease(); err != nil {
				e.slots <- nil // return the token
				return nil, err
			}
		}
		return l, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// release returns a lease's slot. A lease whose run was aborted
// (cancelled mid-collective) is dropped — its group is permanently
// poisoned — after folding its counters into the dead-lease
// snapshots; the token comes back empty so the next acquire allocates
// fresh buffers. The dropped lease's state buffers are unreferenced,
// so repeated cancellations pin no memory beyond the Concurrency cap.
func (e *GradEngine) release(l *gradLease, dead bool) {
	if dead {
		e.mu.Lock()
		addCounters(&e.deadTotal, l.group.TotalCounters())
		for r := 0; r < e.opts.Ranks; r++ {
			addCounters(&e.deadRank[r], l.group.Counters(r))
		}
		for i, cand := range e.all {
			if cand == l {
				e.all = append(e.all[:i], e.all[i+1:]...)
				break
			}
		}
		e.mu.Unlock()
		e.slots <- nil
		return
	}
	e.slots <- l
}

// addCounters folds src into dst: traffic adds, wall time takes the
// critical-path maximum (matching cluster.Group.TotalCounters).
func addCounters(dst *cluster.Counters, src cluster.Counters) {
	dst.BytesSent += src.BytesSent
	dst.Messages += src.Messages
	dst.Syncs += src.Syncs
	if src.CommWall > dst.CommWall {
		dst.CommWall = src.CommWall
	}
}

// NumQubits returns n.
func (e *GradEngine) NumQubits() int { return e.n }

// Ranks returns K, the number of simulated nodes.
func (e *GradEngine) Ranks() int { return e.opts.Ranks }

// Counters returns the summed communication counters accumulated over
// every evaluation so far, aggregated across leases (bytes, messages,
// and synchronizations add; wall time takes the per-lease critical
// path's maximum). Call it only while no evaluation is in flight —
// counters are written lock-free by rank goroutines.
func (e *GradEngine) Counters() cluster.Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.deadTotal
	for _, l := range e.all {
		addCounters(&t, l.group.TotalCounters())
	}
	return t
}

// RankCounters returns rank r's accumulated counters, summed across
// leases. Same quiescence caveat as Counters.
func (e *GradEngine) RankCounters(r int) cluster.Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.deadRank[r]
	for _, l := range e.all {
		addCounters(&t, l.group.Counters(r))
	}
	return t
}

// EnergyGradAngles evaluates E(γ,β) on the sharded state and writes
// the exact adjoint gradients ∂E/∂γ_ℓ, ∂E/∂β_ℓ into gradGamma and
// gradBeta (length p each). The result is identical (to floating-point
// reassociation) to core.SimulateQAOAGrad on a single node. Safe for
// up to Options.Concurrency concurrent calls; cancelling ctx releases
// every rank from its next collective and returns ctx.Err().
func (e *GradEngine) EnergyGradAngles(ctx context.Context, gamma, beta, gradGamma, gradBeta []float64) (float64, error) {
	p := len(gamma)
	if len(beta) != p {
		return 0, fmt.Errorf("distsim: len(gamma)=%d != len(beta)=%d", p, len(beta))
	}
	if len(gradGamma) != p || len(gradBeta) != p {
		return 0, fmt.Errorf("distsim: gradient storage lengths (%d, %d) do not match depth p=%d",
			len(gradGamma), len(gradBeta), p)
	}
	lease, err := e.acquire(ctx)
	if err != nil {
		return 0, err
	}
	var energy float64
	err = lease.group.RunContext(ctx, func(c *cluster.Comm) error {
		if e.opts.Precision == PrecisionFloat32 {
			return e.gradRank32(c, lease, p, gamma, beta, gradGamma, gradBeta, &energy)
		}
		return e.gradRank64(c, lease, p, gamma, beta, gradGamma, gradBeta, &energy)
	})
	e.release(lease, err != nil)
	if err != nil {
		return 0, err
	}
	return energy, nil
}

// gradRank64 is one rank's adjoint pipeline on the complex128 shard,
// reading the diagonal from either representation (float64 slice or
// uint16 codes — the quantized reconstruction is exact, so both read
// identical values).
func (e *GradEngine) gradRank64(c *cluster.Comm, lease *gradLease, p int, gamma, beta, gradGamma, gradBeta []float64, energy *float64) error {
	rank := c.Rank()
	psi, lam := lease.psi[rank], lease.lam[rank]

	// Forward pass: evolve the sharded ket.
	initLocalState(psi, e.n, rank, e.opts.Mixer, e.hw)
	for l := 0; l < p; l++ {
		e.phase(rank, psi, gamma[l])
		if err := e.forwardMixer(c, lease, psi, rank, beta[l]); err != nil {
			return err
		}
	}
	eAll, err := c.AllreduceSum(e.expectation(rank, psi))
	if err != nil {
		return err
	}
	if rank == 0 {
		*energy = eAll
	}

	// Seed the bra: λ = Ĉψ is elementwise against the local slice.
	copy(lam, psi)
	if e.quants != nil {
		e.quants[rank].MulVec(lam)
	} else {
		statevec.MulDiag(lam, e.diags[rank])
	}

	// Reverse pass: per-layer partials accumulate rank-locally.
	flat := lease.flatBuffer(rank, 2*p)
	gG, gB := flat[:p], flat[p:]
	for l := p - 1; l >= 0; l-- {
		d, err := e.reverseMixer(c, lease, psi, lam, rank, beta[l])
		if err != nil {
			return err
		}
		gB[l] = 2 * d
		if e.quants != nil {
			gG[l] = 2 * e.quants[rank].ImDotDiag(lam, psi)
		} else {
			gG[l] = 2 * statevec.ImDotDiag(lam, psi, e.diags[rank])
		}
		if l > 0 {
			e.phase(rank, psi, -gamma[l])
			e.phase(rank, lam, -gamma[l])
		}
	}

	// One vector all-reduce combines every per-layer partial.
	if err := c.AllreduceSumVec(flat); err != nil {
		return err
	}
	if rank == 0 {
		copy(gradGamma, flat[:p])
		copy(gradBeta, flat[p:])
	}
	return nil
}

// phase applies the rank's phase operator to a complex128 shard from
// whichever diagonal representation the engine holds.
func (e *GradEngine) phase(rank int, v statevec.Vec, gamma float64) {
	if e.quants != nil {
		e.quants[rank].PhaseApplyVec(v, gamma)
		return
	}
	statevec.PhaseDiag(v, e.diags[rank], gamma)
}

// expectation is the rank-local objective partial over either
// diagonal representation.
func (e *GradEngine) expectation(rank int, v statevec.Vec) float64 {
	if e.quants != nil {
		return e.quants[rank].ExpectationVec(v)
	}
	return statevec.ExpectationDiag(v, e.diags[rank])
}

// The distributed engine implements evaluator.Evaluator, so a serving
// layer schedules sharded evaluations exactly like single-node ones.
var _ evaluator.Evaluator = (*GradEngine)(nil)

// Energy evaluates the objective at the flat parameter vector with a
// forward-only sharded pass — half a gradient evaluation's work and a
// third of its traffic (evaluator.Evaluator).
func (e *GradEngine) Energy(ctx context.Context, x []float64) (float64, error) {
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return 0, err
	}
	lease, err := e.acquire(ctx)
	if err != nil {
		return 0, err
	}
	var energy float64
	err = lease.group.RunContext(ctx, func(c *cluster.Comm) error {
		if e.opts.Precision == PrecisionFloat32 {
			return e.forwardRank32(c, lease, gamma, beta, &energy)
		}
		rank := c.Rank()
		psi := lease.psi[rank]
		initLocalState(psi, e.n, rank, e.opts.Mixer, e.hw)
		for l := range gamma {
			e.phase(rank, psi, gamma[l])
			if err := e.forwardMixer(c, lease, psi, rank, beta[l]); err != nil {
				return err
			}
		}
		eAll, err := c.AllreduceSum(e.expectation(rank, psi))
		if err != nil {
			return err
		}
		if rank == 0 {
			energy = eAll
		}
		return nil
	})
	e.release(lease, err != nil)
	if err != nil {
		return 0, err
	}
	return energy, nil
}

// EnergyGrad evaluates the objective and its exact adjoint gradient at
// the flat parameter vector (evaluator.Evaluator).
func (e *GradEngine) EnergyGrad(ctx context.Context, x, grad []float64) (float64, error) {
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return 0, err
	}
	if err := evaluator.CheckGradStorage(x, grad); err != nil {
		return 0, err
	}
	p := len(gamma)
	return e.EnergyGradAngles(ctx, gamma, beta, grad[:p], grad[p:])
}

// Caps reports the engine's evaluation metadata: K ranks behind each
// evaluation, Options.Concurrency evaluations in flight at once, and
// the adjoint pair's sharded state memory per evaluation — per
// amplitude 16 B for the complex128 shards, 8 B for float32, so a
// scheduler packing heterogeneous pools by StateBytes sees the real
// footprint of each precision.
func (e *GradEngine) Caps() evaluator.Caps {
	buffers := int64(2) // psi + lam
	if e.opts.Mixer != core.MixerX {
		buffers = 4 // + recvPsi + recvLam (send is half, ignored)
	}
	return evaluator.Caps{
		NumQubits:     e.n,
		Grad:          true,
		MaxConcurrent: e.opts.concurrency(),
		Ranks:         e.opts.Ranks,
		StateBytes:    buffers * e.opts.Precision.AmpBytes() << uint(e.n),
		Outputs:       true,
		Streaming:     true,
	}
}

// forwardMixer applies one mixer layer to a sharded state.
func (e *GradEngine) forwardMixer(c *cluster.Comm, l *gradLease, state statevec.Vec, rank int, beta float64) error {
	if e.opts.Mixer == core.MixerX {
		return distributedMixer(c, state, e.n, e.k, beta)
	}
	return distributedMixerXY(c, state, l.recvPsi[rank], l.send[rank], e.n-e.k, e.edges, beta)
}

// reverseMixer accumulates this rank's share of Im ⟨λ|∂B/∂β·B†|…⟩ for
// one layer and rewinds both states through the exact mixer inverse,
// mirroring core's mixerDerivUndo on the sharded pair.
func (e *GradEngine) reverseMixer(c *cluster.Comm, l *gradLease, psi, lam statevec.Vec, rank int, beta float64) (float64, error) {
	if e.opts.Mixer == core.MixerX {
		return reverseMixerX(c, psi, lam, e.n, e.k, beta)
	}
	return reverseMixerXY(c, psi, lam, l.recvPsi[rank], l.recvLam[rank], l.send[rank], e.n-e.k, e.edges, beta)
}

func (l *gradLease) flatBuffer(rank, size int) []float64 {
	if cap(l.flat[rank]) < size {
		l.flat[rank] = make([]float64, size)
	}
	return l.flat[rank][:size]
}

// reverseMixerX is the transverse-field reverse sweep: the local-qubit
// derivative reduction runs in the sharded layout, the k global-qubit
// terms in the transposed layout — reusing the forward mixer's
// all-to-all exchange, once per state. Every X_q commutes with the
// whole mixer product, so splitting the reduction across the partial
// undo is an exact operator identity, not an approximation.
func reverseMixerX(c *cluster.Comm, psi, lam statevec.Vec, n, k int, beta float64) (float64, error) {
	s, cs := math.Sincos(-beta)
	a, b := complex(cs, 0), complex(0, -s)
	localN := n - k
	d := statevec.ImDotXAll(lam, psi)
	for q := 0; q < localN; q++ {
		statevec.ApplySU2(psi, q, a, b)
		statevec.ApplySU2(lam, q, a, b)
	}
	if k == 0 {
		return d, nil
	}
	if err := c.Alltoall(psi); err != nil {
		return 0, err
	}
	if err := c.Alltoall(lam); err != nil {
		return 0, err
	}
	// Global qubit j now lives at local bit localN−k+j (Algorithm 4).
	d += statevec.ImDotXRange(lam, psi, localN-k, localN)
	for j := 0; j < k; j++ {
		statevec.ApplySU2(psi, localN-k+j, a, b)
		statevec.ApplySU2(lam, localN-k+j, a, b)
	}
	if err := c.Alltoall(psi); err != nil {
		return 0, err
	}
	if err := c.Alltoall(lam); err != nil {
		return 0, err
	}
	return d, nil
}

// reverseMixerXY interleaves one edge reduction with one edge undo in
// reverse application order (the xy factors do not commute), exactly
// as the single-node engine does. Each global-touching edge exchanges
// both states' slices with the partner rank — the same Sendrecv the
// forward sweep uses, twice — so the half-slice packing of half-remote
// edges halves the reverse pass's wire volume too, keeping the
// traffic ratio at exactly 3× one forward run.
func reverseMixerXY(c *cluster.Comm, psi, lam, recvPsi, recvLam, send statevec.Vec, localN int, edges []graphs.Edge, beta float64) (float64, error) {
	s64, c64 := math.Sincos(-beta)
	cc, ss := complex(c64, 0), complex(0, -s64)
	var d float64
	for i := len(edges) - 1; i >= 0; i-- {
		u, v := orderEdge(edges[i])
		if v < localN {
			d += statevec.ImDotXY(lam, psi, u, v)
			statevec.ApplyXY(psi, u, v, -beta)
			statevec.ApplyXY(lam, u, v, -beta)
			continue
		}
		partner, uMask, selMask, selVal := xyEdgePlan(c.Rank(), localN, u, v)
		if uMask != 0 {
			// Half-remote: pack each state's selected half. Sendrecv's
			// closing barrier makes reusing one send buffer safe.
			half := len(psi) / 2
			packHalf(send[:half], psi, uMask, selVal)
			if err := c.Sendrecv(partner, send[:half], recvPsi[:half]); err != nil {
				return 0, err
			}
			packHalf(send[:half], lam, uMask, selVal)
			if err := c.Sendrecv(partner, send[:half], recvLam[:half]); err != nil {
				return 0, err
			}
			d += imDotRemotePairsHalf(lam, recvPsi[:half], uMask, selVal)
			applyRemotePairsHalf(psi, recvPsi[:half], uMask, selVal, cc, ss)
			applyRemotePairsHalf(lam, recvLam[:half], uMask, selVal, cc, ss)
			continue
		}
		if err := c.Sendrecv(partner, psi, recvPsi); err != nil {
			return 0, err
		}
		if err := c.Sendrecv(partner, lam, recvLam); err != nil {
			return 0, err
		}
		if partner >= 0 {
			d += imDotRemotePairs(lam, recvPsi, uMask, selMask, selVal)
			applyRemotePairs(psi, recvPsi, uMask, selMask, selVal, cc, ss)
			applyRemotePairs(lam, recvLam, uMask, selMask, selVal, cc, ss)
		}
	}
	return d, nil
}

// FlatObjective adapts the engine into a value-and-gradient objective
// over the flat parameter vector [γ₀…γ_{p−1}, β₀…β_{p−1}] — the form
// internal/optimize's gradient optimizers consume, so optimize.Adam
// runs unchanged against the sharded state. The first simulator error
// (including ctx cancellation) is latched into *simErr; subsequent
// calls return 0 without evaluating. This mirrors
// serve.Service.GradObjective.
func (e *GradEngine) FlatObjective(ctx context.Context, simErr *error) func(x, g []float64) float64 {
	return func(x, g []float64) float64 {
		if *simErr != nil {
			return 0
		}
		v, err := e.EnergyGrad(ctx, x, g)
		if err != nil {
			*simErr = err
			return 0
		}
		return v
	}
}

// GradResult carries one distributed gradient evaluation's outputs
// plus the run's communication counters.
type GradResult struct {
	Energy    float64
	GradGamma []float64
	GradBeta  []float64
	// Comm is the summed traffic with critical-path wall time.
	Comm cluster.Counters
	// PerRank holds each rank's counters.
	PerRank []cluster.Counters
}

// SimulateQAOAGrad evaluates the distributed energy and exact adjoint
// gradient with a fresh engine. Optimizer loops should build one
// GradEngine (or use FlatObjective) and call EnergyGradAngles instead.
func SimulateQAOAGrad(ctx context.Context, n int, terms poly.Terms, gamma, beta []float64, opts Options) (*GradResult, error) {
	gradGamma := make([]float64, len(gamma))
	gradBeta := make([]float64, len(beta))
	energy, comm, perRank, err := simulateGradInto(ctx, n, terms, gamma, beta, gradGamma, gradBeta, opts)
	if err != nil {
		return nil, err
	}
	return &GradResult{
		Energy:    energy,
		GradGamma: gradGamma,
		GradBeta:  gradBeta,
		Comm:      comm,
		PerRank:   perRank,
	}, nil
}

// SimulateQAOAGradInto is SimulateQAOAGrad writing into caller-owned
// gradient storage (length p each); it returns the energy and the
// run's summed communication counters.
func SimulateQAOAGradInto(ctx context.Context, n int, terms poly.Terms, gamma, beta, gradGamma, gradBeta []float64, opts Options) (float64, cluster.Counters, error) {
	energy, comm, _, err := simulateGradInto(ctx, n, terms, gamma, beta, gradGamma, gradBeta, opts)
	return energy, comm, err
}

func simulateGradInto(ctx context.Context, n int, terms poly.Terms, gamma, beta, gradGamma, gradBeta []float64, opts Options) (float64, cluster.Counters, []cluster.Counters, error) {
	eng, err := NewGradEngine(n, terms, opts)
	if err != nil {
		return 0, cluster.Counters{}, nil, err
	}
	energy, err := eng.EnergyGradAngles(ctx, gamma, beta, gradGamma, gradBeta)
	if err != nil {
		return 0, cluster.Counters{}, nil, err
	}
	perRank := make([]cluster.Counters, opts.Ranks)
	for r := 0; r < opts.Ranks; r++ {
		perRank[r] = eng.RankCounters(r)
	}
	return energy, eng.Counters(), perRank, nil
}
