// Distributed adjoint-mode gradients: the exact ∂E/∂γ_ℓ, ∂E/∂β_ℓ of
// the QAOA objective on the sharded state. Each rank runs the shard
// engine's adjoint (shard.State.Adjoint) on its slice, the single-node
// algorithm with the reverse step's collectives at k > 0, and one vector
// all-reduce (cluster.Comm.AllreduceSumVec) at the end combines the 2p
// per-layer partials of all ranks.
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
	"qokit/internal/poly"
	"qokit/internal/shard"
	"qokit/internal/statevec"
)

// GradEngine evaluates distributed energies and exact adjoint
// gradients for one problem instance. The per-rank diagonal slices are
// precomputed once and shared read-only; everything an evaluation
// mutates — the cluster rank group and the per-rank state, scratch,
// and partial buffers — is bundled into the engine's one lease. One
// evaluation runs at a time, as on one group of ranks of a real
// cluster: the engine is safe for concurrent use, but concurrent
// callers take turns on the lease, so listing it twice in a service
// only queues the second worker. More evaluations in flight take more
// engines, one per elastic build of a Factory over one precompute. A
// warmed-up loop performs no per-evaluation state-vector allocations.
//
// With the x mixer the engine stores the state over the cost's
// XOR-symmetry group where the rank layout can hold it
// (shard.SymmetryFor): ψ(x ⊕ g) = ψ(x) after every layer for every g of
// the group, as on the single-node simulator, so each rank stores only
// its 2^(n−h−k) amplitudes of the 2^(n−h) whose top h bits are zero.
// That divides shard memory, kernel work and all-to-all bytes by 2^h at
// the same message and sync counts. The output stage sees a state
// stored over the group: it weights each stored amplitude 2^h times and
// still covers all 2^n basis states. No option selects it; every other
// case keeps full shards.
type GradEngine struct {
	n, k int
	opts Options
	// eng is the shard engine the lease's ranks run: the group the
	// state is stored over and one window per rank of the stored cost
	// form, shared read-only.
	eng *shard.Engine

	// token is a one-slot semaphore: its holder runs the one
	// evaluation in flight on lease.
	token chan struct{}

	// mu guards lease and the dead-lease counters. lease is the rank
	// group and shards evaluations run on, nil before first use and
	// after a cancelled run dropped it; only the token holder writes
	// it. A dropped lease folds its counters into deadTotal/deadRank,
	// so its state buffers are released to the GC instead of pinning
	// state-vector-scale memory per cancellation.
	mu        sync.Mutex
	lease     *gradLease
	deadTotal cluster.Counters
	deadRank  []cluster.Counters
}

// gradLease is one evaluation's worth of mutable distributed state: a
// rank group plus one shard workspace per rank.
type gradLease struct {
	group *cluster.Group
	ranks []rankState
}

// NewGradEngine builds a distributed gradient engine for an n-qubit
// problem given as polynomial terms: the terms fix the group the shards
// store the state over (costvec.TermPivots, shard.SymmetryFor), and the
// stored cost form holds only the 2^(n−h) stored entries, precomputed
// once with no communication. The rank group and state buffers are
// allocated on the first evaluation and reused by every later one. An
// engine serves its outputs gather-free (EvalOutputs), so
// Options.Gather is rejected.
func NewGradEngine(n int, terms poly.Terms, opts Options) (*GradEngine, error) {
	if _, err := opts.validateEngine(n); err != nil {
		return nil, err
	}
	return buildEngine(n, terms, opts)
}

// buildEngine is NewGradEngine for any valid options; the forward
// one-shots reach it with Options.Gather set.
func buildEngine(n int, terms poly.Terms, opts Options) (*GradEngine, error) {
	k, err := opts.validate(n)
	if err != nil {
		return nil, err
	}
	if err := terms.Validate(n); err != nil {
		return nil, err
	}
	compiled := poly.Compile(terms)
	pivots, flip := costvec.TermPivots(n, compiled.Masks)
	sym := shard.SymmetryFor(pivots, flip, n, k, opts.Mixer == core.MixerX)
	eng, err := termsEngine(n, opts, compiled, sym, flip)
	if err != nil {
		return nil, err
	}
	return newEngine(n, opts, eng)
}

// termsEngine precomputes the stored cost form of the compiled terms
// over sym, once for every rank, and builds the shard engine over it.
func termsEngine(n int, opts Options, c poly.Compiled, sym shard.Symmetry, flip bool) (*shard.Engine, error) {
	form, err := costvec.NewStored(statevec.NewPool(0), c, n, sym.Pivots, flip)
	if err != nil {
		return nil, fmt.Errorf("distsim: %w", err)
	}
	return shardEngine(n, opts, sym, form)
}

// shardEngine builds the shard engine of an n-qubit run under opts over
// a stored cost form, whose ranks store the state over sym.
func shardEngine(n int, opts Options, sym shard.Symmetry, form *costvec.Stored) (*shard.Engine, error) {
	edges, err := core.MixerSweepEdges(n, opts.Mixer)
	if err != nil {
		return nil, err
	}
	return shard.New(shard.Config{
		N: n, Ranks: opts.Ranks, Pool: serialPool, Sym: sym,
		XY: opts.Mixer != core.MixerX, Edges: edges, HammingWeight: opts.hammingWeight(n),
	}, form)
}

// newEngine builds an engine over a shard engine.
func newEngine(n int, opts Options, eng *shard.Engine) (*GradEngine, error) {
	k, err := opts.validate(n)
	if err != nil {
		return nil, err
	}
	e := &GradEngine{
		n: n, k: k,
		opts:     opts,
		eng:      eng,
		token:    make(chan struct{}, 1),
		deadRank: make([]cluster.Counters, opts.Ranks),
	}
	return e, nil
}

// newLease allocates the rank group and shards of one evaluation and
// makes them the engine's lease (token held).
func (e *GradEngine) newLease() error {
	g, err := cluster.NewGroup(e.opts.Ranks, e.opts.Algo)
	if err != nil {
		return err
	}
	g.SetFault(e.opts.fault)
	l := &gradLease{group: g, ranks: make([]rankState, e.opts.Ranks)}
	for r := range l.ranks {
		l.ranks[r].Shard = shard.NewShard(e.eng, r, e.opts.Precision == PrecisionFloat32)
	}
	e.mu.Lock()
	e.lease = l
	e.mu.Unlock()
	return nil
}

// acquire takes the token and returns the lease, allocating it when
// there is none, or returns early when ctx is cancelled while another
// evaluation holds the token.
func (e *GradEngine) acquire(ctx context.Context) (*gradLease, error) {
	select {
	case e.token <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if e.lease == nil {
		if err := e.newLease(); err != nil {
			<-e.token
			return nil, err
		}
	}
	return e.lease, nil
}

// release returns the token. A lease whose run was aborted (cancelled
// mid-collective) is dropped — its group is permanently poisoned —
// after folding its counters into the dead-lease snapshots, so the
// next acquire allocates fresh buffers and repeated cancellations pin
// no memory beyond one lease.
func (e *GradEngine) release(dead bool) {
	if dead {
		e.mu.Lock()
		addCounters(&e.deadTotal, e.lease.group.TotalCounters())
		for r := range e.deadRank {
			addCounters(&e.deadRank[r], e.lease.group.Counters(r))
		}
		e.lease = nil
		e.mu.Unlock()
	}
	<-e.token
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

// pivots returns h, the number of pivots of the group the shards store
// the state over.
func (e *GradEngine) pivots() int { return len(e.eng.Config().Sym.Pivots) }

// Ranks returns K, the number of simulated nodes.
func (e *GradEngine) Ranks() int { return e.opts.Ranks }

// Counters returns the summed communication counters accumulated over
// every evaluation so far, the current lease's and every dropped one's
// (bytes, messages, and synchronizations add; wall time takes the
// per-lease critical path's maximum). Call it only while no evaluation
// is in flight — counters are written lock-free by rank goroutines.
func (e *GradEngine) Counters() cluster.Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.deadTotal
	if e.lease != nil {
		addCounters(&t, e.lease.group.TotalCounters())
	}
	return t
}

// RankCounters returns rank r's accumulated counters, summed like
// Counters. Same quiescence caveat as Counters.
func (e *GradEngine) RankCounters(r int) cluster.Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.deadRank[r]
	if e.lease != nil {
		addCounters(&t, e.lease.group.Counters(r))
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
// non-finite angles, checks out the lease and runs r on every rank of it.
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
		return e.evolve(c, &lease.ranks[c.Rank()], r)
	})
	e.release(err != nil)
	return err
}

// EnergyGradAngles evaluates E(γ,β) on the sharded state and writes
// the exact adjoint gradients ∂E/∂γ_ℓ, ∂E/∂β_ℓ into gradGamma and
// gradBeta (length p each). The result is identical (to floating-point
// reassociation) to core.SimulateQAOAGrad on a single node. Safe for
// concurrent calls, which take turns on the engine's lease; cancelling
// ctx releases every rank from its next collective and returns
// ctx.Err().
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
// evaluation and the sharded state memory its lease pins — per
// amplitude 16 B for float64 planes, 8 B for float32, so a scheduler
// packing heterogeneous pools by StateBytes sees the real footprint of
// each precision.
func (e *GradEngine) Caps() evaluator.Caps { return e.opts.caps(e.n, e.pivots()) }

// caps is the Caps of an engine for n qubits under o whose shards
// store the state over h pivots: exactly the planes a warm lease holds,
// the 2^(n−h) stored amplitudes of ψ and λ, plus at K ≥ 2 the receive
// scratch each rank's all-to-all keeps for the x mixer (a whole slice
// under Transpose, one subchunk under Pairwise), or the xy mixers'
// partner-exchange planes (shard.State.Bind and Adjoint): a receive
// slice for each state and a half-slice send buffer. At K = 1 the xy
// mixers exchange nothing.
func (o Options) caps(n, h int) evaluator.Caps {
	stored := int64(1) << uint(n-h)
	amps := 2 * stored // psi + lam
	switch {
	case o.Ranks == 1:
	case o.Mixer != core.MixerX:
		amps += 2*stored + stored/2 // recvPsi + recvLam + send
	case o.Algo == cluster.Transpose:
		amps += stored
	default:
		amps += stored / int64(o.Ranks)
	}
	return evaluator.Caps{
		NumQubits:  n,
		Grad:       true,
		Ranks:      o.Ranks,
		StateBytes: amps * o.Precision.AmpBytes(),
		Outputs:    true,
		Streaming:  true,
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
