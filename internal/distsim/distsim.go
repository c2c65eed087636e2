// Package distsim implements the paper's distributed simulation
// (§III-C, Algorithm 4) on the in-process cluster substrate. The 2^n
// state vector is split over K = 2^k ranks; the k most significant
// index bits are the "global" qubits fixed by the rank id, the rest
// are "local".
//
// Each rank is a shard of the one split-plane engine that the
// single-node simulator runs as a single rank (internal/shard): the
// same phase tables, tiled F = 2 layer, pivot passes, xy edge kernels
// and joint reverse step, on an inline kernel pool, plus the one step
// Algorithm 4 adds, the all-to-all (or, for an xy edge that touches a
// global qubit, the partner exchange) that brings the global qubits
// local. The phase and the cost precomputation touch only local data:
// the engine holds one stored cost form (costvec.Stored), precomputed
// from the terms or leased from a registry entry, and each rank reads
// its window [offset, offset + 2^(n−h−k)) of it in place, as uint16
// codes or float64 entries under the form's one rule.
//
// With the x mixer the ranks store the state over the cost's
// XOR-symmetry group where their layout can hold it (shard.SymmetryFor,
// the rule the single-node simulator applies at k = 0): LABS takes
// quarter shards (h = 2) at n = 16 for K ≤ 4, MaxCut and SK, and LABS
// at larger K, the complement alone (half shards, 2k ≤ n − 2); every
// other case keeps full shards.
//
// Every entry point — the GradEngine's energy, gradient, outputs and
// streaming, and the forward one-shots SimulateQAOA and
// SimulateQAOACheckpointed, which run one lease of a fresh engine —
// goes through one rank loop, GradEngine.evolve (run.go), which adds
// to the shard's work the all-reduces of the energy and the gradient,
// the gather and the snapshots. The outputs are internal/evaluator's
// output stage, run on every rank over its shard with the rank's
// cluster endpoint as the collective.
package distsim

import (
	"context"
	"fmt"
	"math/bits"

	"qokit/internal/cluster"
	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/poly"
	"qokit/internal/shard"
	"qokit/internal/statevec"
)

// Options configures a distributed run.
type Options struct {
	// Ranks is K, the number of simulated nodes (power of two ≥ 1).
	Ranks int
	// Algo selects the all-to-all implementation (the paper's custom
	// MPI code vs cuStateVec distributed index swap, Fig. 5).
	Algo cluster.AlltoallAlgo
	// Gather controls whether the forward one-shots (SimulateQAOA,
	// SimulateQAOACheckpointed) assemble the full state vector on return
	// (the mpi_gather=True output mode of Listing 3). Engines and their
	// factories reject it: they serve outputs gather-free (EvalOutputs).
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
	// Precision selects the sharded amplitude storage (§V-B): float64
	// planes (the default), or float32 planes with float32 wire formats
	// on every collective — half the state memory per rank and half the
	// fabric bytes, at the single-node SoA32 accuracy (state error ~few
	// ULPs per layer, gradient band ~2e-3).
	Precision Precision
	// fault, when non-nil, is installed on every rank group this run
	// creates (cluster.Group.SetFault): the fault injector the package's
	// checkpoint/restart tests use to kill ranks mid-collective.
	fault cluster.FaultFn
}

// validate checks the option set against the problem size and resolves
// k = log2(Ranks). Every violation names the offending Options field.
func (o Options) validate(n int) (k int, err error) {
	if err := costvec.CheckQubits(n); err != nil {
		return 0, err
	}
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
	switch o.Precision {
	case PrecisionFloat64, PrecisionFloat32:
	default:
		return 0, fmt.Errorf("distsim: Options.Precision=%v unknown (want PrecisionFloat64 or PrecisionFloat32)", o.Precision)
	}
	if o.Gather && o.Precision == PrecisionFloat32 {
		return 0, fmt.Errorf("distsim: Options.Gather=true does not compose with Options.Precision=float32 — the memory-reduced shards exist to avoid materializing node-scale buffers; use the gather-free outputs (EvalOutputs: sampling, CVaR, overlap, probability queries)")
	}
	return k, nil
}

// validateEngine is validate for the engines and their factories, which
// serve outputs gather-free and reject Options.Gather: only the forward
// one-shots gather the state.
func (o Options) validateEngine(n int) (k int, err error) {
	if k, err = o.validate(n); err == nil && o.Gather {
		err = fmt.Errorf("distsim: Options.Gather=true applies only to the forward one-shots (SimulateQAOA, SimulateQAOACheckpointed); an engine serves its outputs gather-free through EvalOutputs")
	}
	return k, err
}

// hammingWeight resolves the Dicke weight the options select.
func (o Options) hammingWeight(n int) int {
	if o.HammingWeight > 0 {
		return o.HammingWeight
	}
	return n / 2
}

// Result carries a forward one-shot's outputs plus per-run
// communication statistics. An engine's measurement-style outputs come
// from GradEngine.EvalOutputs.
type Result struct {
	Expectation float64
	// Overlap is the ground-state probability and MinCost the minimum
	// cost (over the feasible subspace for the xy mixers).
	Overlap float64
	MinCost float64
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
	eng, err := buildEngine(n, terms, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	r := &run{
		gamma: gamma, beta: beta, plan: plan, energy: &res.Expectation,
		outputs: func(c *cluster.Comm, v evaluator.View) error {
			gmin, overlap, err := v.Ground(c)
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
	full := shard.FullState()
	err = g.Run(func(c *cluster.Comm) error {
		s := slices[c.Rank()]
		return shard.MixerX(c, serialPool, shard.Planes[float64]{Re: s.Re, Im: s.Im}, statevec.Phase{}, k, beta, &full)
	})
	if err != nil {
		return cluster.Counters{}, err
	}
	return g.TotalCounters(), nil
}
