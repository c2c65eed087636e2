// Distributed adjoint-mode gradients: the exact ∂E/∂γ_ℓ, ∂E/∂β_ℓ of
// the QAOA objective, evaluated on the state vector sharded over the
// in-process cluster. The algorithm is core's adjoint run per rank:
// one forward pass fills the sharded ket ψ, the bra is seeded locally
// as λ = Ĉψ (the diagonal is already sharded), and both states walk
// backwards through the single-node joint reverse kernels with every
// reduction evaluated on the local slice. For the x mixer each layer
// transposes both states, runs the joint reverse RX step over the k
// swapped-in qubits (ReverseRXRangePlanes), transposes back and runs
// the tiled ReverseUniformRX over the local qubits with the phase
// reduction and undo in its last pass; the xy mixers use ReverseXY and
// partner exchanges. Per-layer partials accumulate rank-locally; one
// vector all-reduce (cluster.Comm.AllreduceSumVec) at the end combines
// all 2p of them.
//
// On half shards the reverse step runs the joint mirror reverse
// (ReverseMirrorRXPlanes) on the transposed planes before the range
// step, and every reduction over the stored amplitudes doubles exactly.
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
//
// When the diagonal is bitwise flip-symmetric (LABS, MaxCut, SK), the
// mixer is x and 2k ≤ n−2, the engine runs half shards: ψ(x) = ψ(x̄)
// after every layer, as on single-node SoA, so each rank stores only
// its 2^(n−1−k) representatives x < 2^(n−1). That halves shard memory,
// kernel work and all-to-all bytes at the same message and sync
// counts. Outputs weight each representative twice and still cover all
// 2^n basis states. No option selects it; every other case keeps full
// shards. Shards use the complement alone: the mirror swap pairs each
// representative with its complement, so LABS's other flips, which a
// single-node simulator also stores over (a quarter state), stay
// unused here.
type GradEngine struct {
	n, k, hw int
	opts     Options
	edges    []graphs.Edge
	// half is set on half shards (cutShards).
	half bool

	// costs holds each rank's slice of the diagonal, shared read-only
	// by every lease: float64 entries, or on an exact grid uint16 codes
	// against the slice's own (min, scale) — 2 B per amplitude instead
	// of 8 (§V-B).
	costs []rankCost

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

// gradLease is one evaluation's worth of mutable distributed state: a
// rank group plus one shard workspace per rank.
type gradLease struct {
	group  *cluster.Group
	shards []evolver
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
	full := make([]float64, 1<<uint(n))
	compiled := poly.Compile(terms)
	localSize := len(full) >> uint(k)
	for r := 0; r < opts.Ranks; r++ {
		costvec.PrecomputeRange(compiled, uint64(r*localSize), full[r*localSize:(r+1)*localSize])
	}
	diags, half, err := cutShards(full, n, k, opts)
	if err != nil {
		return nil, err
	}
	return newEngine(n, opts, rankCosts(diags, half), half)
}

// newEngine builds an engine over per-rank cost slices, cut for half
// shards when half is set.
func newEngine(n int, opts Options, costs []rankCost, half bool) (*GradEngine, error) {
	k, err := opts.validate(n)
	if err != nil {
		return nil, err
	}
	edges, err := core.MixerSweepEdges(n, opts.Mixer)
	if err != nil {
		return nil, err
	}
	e := &GradEngine{
		n: n, k: k, hw: opts.hammingWeight(n),
		opts:     opts,
		edges:    edges,
		half:     half,
		costs:    costs,
		slots:    make(chan *gradLease, opts.concurrency()),
		deadRank: make([]cluster.Counters, opts.Ranks),
	}
	for i := 0; i < opts.concurrency(); i++ {
		e.slots <- nil
	}
	return e, nil
}

// newLease allocates one evaluation's rank group and shards and
// registers it for counter aggregation.
func (e *GradEngine) newLease() (*gradLease, error) {
	g, err := cluster.NewGroup(e.opts.Ranks, e.opts.Algo)
	if err != nil {
		return nil, err
	}
	g.SetFault(e.opts.Fault)
	l := &gradLease{group: g, shards: make([]evolver, e.opts.Ranks)}
	for r := range l.shards {
		if e.opts.Precision == PrecisionFloat32 {
			l.shards[r] = newShard[float32](e, r)
		} else {
			l.shards[r] = newShard[float64](e, r)
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

// localQubits returns the qubit count of one rank's stored slice: n−k,
// or n−1−k on half shards.
func (e *GradEngine) localQubits() int {
	if e.half {
		return e.n - 1 - e.k
	}
	return e.n - e.k
}

// weight is the number of basis states each stored amplitude stands
// for: 2 on half shards, else 1. Energies and gradient reductions over
// the stored amplitudes scale by it, exactly.
func (e *GradEngine) weight() float64 {
	if e.half {
		return 2
	}
	return 1
}

// expand returns the 2^n state from the gathered stored amplitudes: on
// half shards entry x ≥ 2^(n−1) takes the value of its complement.
func (e *GradEngine) expand(stored statevec.Vec) statevec.Vec {
	if !e.half {
		return stored
	}
	full := append(stored, make(statevec.Vec, len(stored))...)
	last := len(full) - 1
	for i, a := range stored {
		full[last-i] = a
	}
	return full
}

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

// perRank returns every rank's accumulated counters.
func (e *GradEngine) perRank() []cluster.Counters {
	out := make([]cluster.Counters, e.opts.Ranks)
	for r := range out {
		out[r] = e.RankCounters(r)
	}
	return out
}

// eval is the entry every evaluation shares: it rejects mismatched or
// non-finite angles, checks out a lease and runs r on every rank of it.
// Cancelling ctx releases every rank from its next collective and
// returns ctx.Err().
func (e *GradEngine) eval(ctx context.Context, r *run) error {
	if len(r.gamma) != len(r.beta) {
		return fmt.Errorf("distsim: len(gamma)=%d != len(beta)=%d", len(r.gamma), len(r.beta))
	}
	if err := evaluator.CheckAngles(r.gamma, r.beta); err != nil {
		return err
	}
	lease, err := e.acquire(ctx)
	if err != nil {
		return err
	}
	err = lease.group.RunContext(ctx, func(c *cluster.Comm) error {
		return lease.shards[c.Rank()].evolve(c, r)
	})
	e.release(lease, err != nil)
	return err
}

// EnergyGradAngles evaluates E(γ,β) on the sharded state and writes
// the exact adjoint gradients ∂E/∂γ_ℓ, ∂E/∂β_ℓ into gradGamma and
// gradBeta (length p each). The result is identical (to floating-point
// reassociation) to core.SimulateQAOAGrad on a single node. Safe for
// up to Options.Concurrency concurrent calls; cancelling ctx releases
// every rank from its next collective and returns ctx.Err().
func (e *GradEngine) EnergyGradAngles(ctx context.Context, gamma, beta, gradGamma, gradBeta []float64) (float64, error) {
	if p := len(gamma); len(gradGamma) != p || len(gradBeta) != p {
		return 0, fmt.Errorf("distsim: gradient storage lengths (%d, %d) do not match depth p=%d",
			len(gradGamma), len(gradBeta), p)
	}
	var energy float64
	if err := e.eval(ctx, &run{gamma: gamma, beta: beta, energy: &energy, gradGamma: gradGamma, gradBeta: gradBeta}); err != nil {
		return 0, err
	}
	return energy, nil
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
	var energy float64
	if err := e.eval(ctx, &run{gamma: gamma, beta: beta, energy: &energy}); err != nil {
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
// the sharded state memory one evaluation pins — per amplitude 16 B
// for float64 planes, 8 B for float32, so a scheduler packing
// heterogeneous pools by StateBytes sees the real footprint of each
// precision.
func (e *GradEngine) Caps() evaluator.Caps { return e.opts.caps(e.n) }

// caps is the Caps of an engine for n qubits under o. It counts the
// full-state figures, an upper bound on half shards, which hold half of
// each: ψ and λ, plus for the x mixer at K ≥ 2 the receive scratch each
// rank's all-to-all keeps for the lease's lifetime (a whole slice under
// Transpose, one subchunk under Pairwise), or for the xy mixers the
// partner-exchange receive planes of both states.
func (o Options) caps(n int) evaluator.Caps {
	amps := int64(2) << uint(n) // psi + lam
	switch {
	case o.Mixer != core.MixerX:
		amps *= 2 // + recvPsi + recvLam (send is half, ignored)
	case o.Ranks > 1 && o.Algo == cluster.Transpose:
		amps += 1 << uint(n)
	case o.Ranks > 1:
		amps += (int64(1) << uint(n)) / int64(o.Ranks)
	}
	return evaluator.Caps{
		NumQubits:     n,
		Grad:          true,
		MaxConcurrent: o.concurrency(),
		Ranks:         o.Ranks,
		StateBytes:    amps * o.Precision.AmpBytes(),
		Outputs:       true,
		Streaming:     true,
	}
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
	return energy, eng.Counters(), eng.perRank(), nil
}
