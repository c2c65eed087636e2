// Package distsim implements the paper's distributed simulation
// (§III-C, Algorithm 4) on the in-process cluster substrate. The 2^n
// state vector is split over K = 2^k ranks; the k most significant
// index bits are the "global" qubits fixed by the rank id, the rest
// are "local".
//
// Each rank runs the single-node split-layout kernels on its slice,
// held as (re, im) planes in float64 or float32 (shard.go). Per layer:
//   - the phase operator and the cost-diagonal precomputation touch
//     only local data (each rank computed its diagonal slice from the
//     terms with PrecomputeRange — no communication, §III-A locality);
//     the phase gathers from per-γ tables when the rank's slice is an
//     exact grid, as single-node does,
//   - the transverse-field mixer runs the tiled F = 2 layer on the n−k
//     local qubits, with the phase in its first pass, performs one
//     all-to-all (which transposes the rank bits with the top k local
//     bits), runs one tiled pass over the k swapped-in qubits — now
//     local, at positions n−2k…n−k−1 — and restores the layout with a
//     second all-to-all,
//   - the xy mixers sweep their edge list in the exact single-node
//     order (core.MixerSweepEdges): edges between local qubits run the
//     single-node kernel; an edge touching a global qubit couples each
//     amplitude to one on exactly one partner rank (the rank id with
//     that qubit's bit flipped), so it costs one point-to-point slice
//     exchange (cluster.Sendrecv, the cuStateVec index-bit-swap
//     pattern) instead of an all-to-all.
//
// The objective is one local partial inner product plus an all-reduce.
// Algorithm 4 requires 2k ≤ n so each all-to-all subchunk holds at
// least one amplitude.
//
// Every entry point — the GradEngine's energy, gradient, outputs and
// streaming, and the one-shot SimulateQAOA* functions, which run one
// lease of a fresh engine — goes through one evolution function,
// shard.evolve. grad.go adds the adjoint gradient: the ket and the
// cost-weighted bra walk backwards through the tiled joint reverse
// step, and one vector all-reduce (AllreduceSumVec) combines the
// per-layer partials — communication stays mixer-shaped.
package distsim

import (
	"context"
	"fmt"
	"math/bits"

	"qokit/internal/cluster"
	"qokit/internal/core"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/statevec"
)

// Options configures a distributed run.
type Options struct {
	// Ranks is K, the number of simulated nodes (power of two ≥ 1).
	Ranks int
	// Algo selects the all-to-all implementation (the paper's custom
	// MPI code vs cuStateVec distributed index swap, Fig. 5).
	Algo cluster.AlltoallAlgo
	// Gather controls whether the full state vector is assembled on
	// return (the mpi_gather=True output mode of Listing 3).
	Gather bool
	// Mixer selects the mixing operator: the transverse-field mixer
	// (Algorithm 4, as in the paper's large-scale runs) or one of the
	// Hamming-weight-preserving xy mixers, distributed by per-edge
	// partner exchanges.
	Mixer core.Mixer
	// HammingWeight is the Dicke initial-state weight for the xy
	// mixers (≤ 0 selects n/2, matching the single-node default).
	// Ignored for MixerX.
	HammingWeight int
	// Concurrency is the number of evaluations a GradEngine may run in
	// flight at once (≤ 0 selects 1, the memory footprint of the old
	// single-flight engine). Each concurrent evaluation leases its own
	// rank group and state buffers, so memory grows linearly with it.
	Concurrency int
	// Precision selects the sharded amplitude storage (§V-B): float64
	// planes (the default), or float32 planes with float32 wire formats
	// on every collective — half the state memory per rank and half the
	// fabric bytes, at the single-node SoA32 accuracy (state error ~few
	// ULPs per layer, gradient band ~2e-3).
	Precision Precision
	// Quantize stores each rank's diagonal slice as uint16 codes
	// (§V-B): every rank quantizes only its PrecomputeRange shard
	// against one global (min, scale) agreed by an AllreduceMin/Max
	// pre-pass, so codes stay comparable across ranks. Exact by
	// construction — quantized energies and gradients match the float64
	// distributed path to rounding. Fails at engine construction if any
	// shard is not exactly representable.
	Quantize bool
	// QuantScale fixes the quantization step; 0 selects automatically
	// (the AutoScales power-of-two ladder, reconciled across ranks).
	QuantScale float64
	// Fault, when non-nil, is installed on every rank group this run
	// creates (cluster.Group.SetFault) — the test-only fault injector
	// the checkpoint/restart suite uses to kill ranks mid-collective.
	// Production callers leave it nil.
	Fault cluster.FaultFn
}

// validate checks the option set against the problem size and resolves
// k = log2(Ranks). Every violation names the offending Options field.
func (o Options) validate(n int) (k int, err error) {
	if o.Ranks < 1 {
		return 0, fmt.Errorf("distsim: Options.Ranks=%d must be ≥ 1", o.Ranks)
	}
	if bits.OnesCount(uint(o.Ranks)) != 1 {
		return 0, fmt.Errorf("distsim: Options.Ranks=%d must be a power of two", o.Ranks)
	}
	k = bits.TrailingZeros(uint(o.Ranks))
	if 2*k > n {
		return 0, fmt.Errorf("distsim: Options.Ranks=%d requires 2·log2(Ranks) ≤ n (Algorithm 4), got k=%d for n=%d", o.Ranks, k, n)
	}
	switch o.Mixer {
	case core.MixerX, core.MixerXYRing, core.MixerXYComplete:
	default:
		return 0, fmt.Errorf("distsim: Options.Mixer=%v unknown", o.Mixer)
	}
	if o.Mixer != core.MixerX && o.HammingWeight > n {
		return 0, fmt.Errorf("distsim: Options.HammingWeight=%d exceeds n=%d", o.HammingWeight, n)
	}
	if o.Concurrency < 0 {
		return 0, fmt.Errorf("distsim: Options.Concurrency=%d must be ≥ 0", o.Concurrency)
	}
	switch o.Precision {
	case PrecisionFloat64, PrecisionFloat32:
	default:
		return 0, fmt.Errorf("distsim: Options.Precision=%v unknown (want PrecisionFloat64 or PrecisionFloat32)", o.Precision)
	}
	if o.Quantize && o.Precision == PrecisionFloat32 {
		return 0, fmt.Errorf("distsim: Options.Quantize does not compose with Options.Precision=float32 (matching the single-node rule: quantized phases are exact complex128 tables)")
	}
	if o.QuantScale < 0 {
		return 0, fmt.Errorf("distsim: Options.QuantScale=%v must be ≥ 0", o.QuantScale)
	}
	if o.QuantScale > 0 && !o.Quantize {
		return 0, fmt.Errorf("distsim: Options.QuantScale=%v set without Options.Quantize", o.QuantScale)
	}
	if o.Gather && o.Quantize {
		return 0, fmt.Errorf("distsim: Options.Gather=true does not compose with Options.Quantize — the memory-reduced shards exist to avoid materializing node-scale buffers; use the gather-free outputs (SimulateQAOAOutputs or GradEngine.Outputs: sampling, CVaR, overlap, probability queries)")
	}
	if o.Gather && o.Precision == PrecisionFloat32 {
		return 0, fmt.Errorf("distsim: Options.Gather=true does not compose with Options.Precision=float32 — the memory-reduced shards exist to avoid materializing node-scale buffers; use the gather-free outputs (SimulateQAOAOutputs or GradEngine.Outputs: sampling, CVaR, overlap, probability queries)")
	}
	return k, nil
}

// ValidateEnginePair checks that a forward-simulation option set and a
// gradient-engine option set describe the same numeric contract, so a
// harness pairing the two (a benchmark trajectory, a verification
// gate) fails fast instead of comparing a float32 forward pass against
// a float64 gradient. Every violation names the offending Options
// field, matching validate's convention.
func ValidateEnginePair(forward, grad Options) error {
	if forward.Precision != grad.Precision {
		return fmt.Errorf("distsim: Options.Precision mismatch between forward (%v) and grad (%v) engines", forward.Precision, grad.Precision)
	}
	if forward.Quantize != grad.Quantize {
		return fmt.Errorf("distsim: Options.Quantize mismatch between forward (%t) and grad (%t) engines", forward.Quantize, grad.Quantize)
	}
	if forward.QuantScale != grad.QuantScale {
		return fmt.Errorf("distsim: Options.QuantScale mismatch between forward (%v) and grad (%v) engines", forward.QuantScale, grad.QuantScale)
	}
	return nil
}

// concurrency resolves the lease cap the options select.
func (o Options) concurrency() int {
	if o.Concurrency > 0 {
		return o.Concurrency
	}
	return 1
}

// hammingWeight resolves the Dicke weight the options select.
func (o Options) hammingWeight(n int) int {
	if o.HammingWeight > 0 {
		return o.HammingWeight
	}
	return n / 2
}

// Result carries the distributed outputs plus per-run communication
// statistics. The CVaR, Samples, Probs, and MaxProb* fields are filled
// only by the gather-free output entry points (SimulateQAOAOutputs,
// GradEngine.Outputs) according to their OutputSpec.
type Result struct {
	Expectation float64
	Overlap     float64
	MinCost     float64
	// CVaR holds CVaR(α) per OutputSpec.CVaRAlphas entry, matching
	// core.Result.CVaR to floating-point reassociation.
	CVaR []float64
	// Samples holds OutputSpec.Shots global basis indices from the
	// two-stage distributed draw.
	Samples []uint64
	// Probs holds |ψ_x|² per OutputSpec.ProbIndices entry.
	Probs []float64
	// MaxProbIndex and MaxProb identify the most probable basis state
	// (ties resolve to the lowest global index).
	MaxProbIndex uint64
	MaxProb      float64
	// Variance is Var(C) over the measurement distribution, filled when
	// OutputSpec.Variance is set — per-rank Welford triples merged by
	// one allreduce, matching core's single-pass value to rounding.
	Variance float64
	// State is the gathered state vector (nil unless Options.Gather).
	State statevec.Vec
	// Comm is the summed traffic with critical-path wall time.
	Comm cluster.Counters
	// PerRank holds each rank's counters.
	PerRank []cluster.Counters
}

// SimulateQAOA runs the full distributed Algorithm 3/4 pipeline for
// the problem given by terms: one lease of a fresh GradEngine.
// Cancelling ctx releases every rank from its next collective and
// returns ctx.Err().
func SimulateQAOA(ctx context.Context, n int, terms poly.Terms, gamma, beta []float64, opts Options) (*Result, error) {
	return simulate(ctx, n, terms, gamma, beta, opts, ckptPlan{})
}

// simulate is SimulateQAOA threaded through a checkpoint plan: the zero
// plan is a plain run; SimulateQAOACheckpointed passes a plan that
// seeds the shards from a snapshot and captures layer boundaries.
func simulate(ctx context.Context, n int, terms poly.Terms, gamma, beta []float64, opts Options, plan ckptPlan) (*Result, error) {
	eng, err := NewGradEngine(n, terms, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	r := &run{
		gamma: gamma, beta: beta, plan: plan, energy: &res.Expectation,
		outputs: func(c *cluster.Comm, v shardView) error {
			gmin, overlap, err := rankGround(c, v)
			if c.Rank() == 0 {
				res.MinCost, res.Overlap = gmin, overlap
			}
			return err
		},
	}
	if opts.Gather {
		r.state = &res.State
	}
	if err := eng.eval(ctx, r); err != nil {
		return nil, err
	}
	res.Comm, res.PerRank = eng.Counters(), eng.perRank()
	return res, nil
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

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

// MixerOnly runs just the distributed transverse-field mixer once on a
// caller-provided distributed state (one 2^(n−k)-amplitude slice per
// rank, modified in place) and returns the group counters. It is the
// kernel benchmarked by the weak-scaling experiment (Fig. 5 measures
// one LABS layer, which is dominated by this collective pattern).
func MixerOnly(n int, ranks int, algo cluster.AlltoallAlgo, slices []*statevec.SoA, beta float64) (cluster.Counters, error) {
	k, err := Options{Ranks: ranks, Algo: algo}.validate(n)
	if err != nil {
		return cluster.Counters{}, err
	}
	if len(slices) != ranks {
		return cluster.Counters{}, fmt.Errorf("distsim: len(slices)=%d != Options.Ranks=%d", len(slices), ranks)
	}
	for r, s := range slices {
		if s == nil || s.Len() != 1<<uint(n-k) {
			return cluster.Counters{}, fmt.Errorf("distsim: slice %d is not a 2^%d-amplitude state", r, n-k)
		}
	}
	g, err := cluster.NewGroup(ranks, algo)
	if err != nil {
		return cluster.Counters{}, err
	}
	err = g.Run(func(c *cluster.Comm) error {
		s := slices[c.Rank()]
		return mixerX(c, planes[float64]{s.Re, s.Im}, statevec.Phase{}, k, beta)
	})
	if err != nil {
		return cluster.Counters{}, err
	}
	return g.TotalCounters(), nil
}
