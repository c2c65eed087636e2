package qokit

import (
	"context"

	"qokit/internal/cluster"
	"qokit/internal/distsim"
)

// AlltoallAlgo selects the distributed all-to-all implementation.
type AlltoallAlgo = cluster.AlltoallAlgo

// All-to-all algorithms: Pairwise is the classic MPI exchange (the
// paper's custom MPI_Alltoall backend); Transpose is the direct
// peer-to-peer block transpose (the cuStateVec distributed index-swap
// analogue, the faster backend in Fig. 5).
const (
	Pairwise  = cluster.Pairwise
	Transpose = cluster.Transpose
)

// CommCounters reports a distributed run's traffic (bytes, messages,
// synchronizations) and communication wall time.
type CommCounters = cluster.Counters

// NetworkModel converts traffic counters into modeled fabric time for
// reporting at scales the host cannot physically reproduce.
type NetworkModel = cluster.NetworkModel

// DefaultNetworkModel approximates a Polaris-class interconnect
// (≈2 µs/message, 25 GB/s).
func DefaultNetworkModel() NetworkModel { return cluster.DefaultNetworkModel() }

// DistOptions configures a distributed QAOA simulation (§III-C):
// rank count K (power of two, 2·log2(K) ≤ n), the all-to-all
// algorithm, the mixer family, whether to gather the full state, and
// the §V-B state precision — float64 or float32 shards (float32 halves
// state memory and fabric bytes). The diagonal's form follows from the
// problem alone: a rank whose slice is an exact grid of at most
// 2^(n−k)/16 levels keeps only its uint16 codes, 2 bytes per amplitude
// instead of 8, with results bit-identical to float64 slices.
// Caps().StateBytes reflects the chosen precision, so service pools
// pack honestly.
type DistOptions = distsim.Options

// DistPrecision selects the sharded amplitude storage (see the
// DistFloat64/DistFloat32 constants).
type DistPrecision = distsim.Precision

// Distributed shard precisions: DistFloat64, the default, stores
// float64 (re, im) planes; DistFloat32 stores float32 planes with
// float32 wire formats — half the state memory and half the fabric
// bytes, at the single-node SoA32 accuracy (gradient band ~2e-3).
const (
	DistFloat64 = distsim.PrecisionFloat64
	DistFloat32 = distsim.PrecisionFloat32
)

// DistResult carries the distributed outputs and per-rank counters.
type DistResult = distsim.Result

// SimulateQAOADistributed runs QAOA with the state vector sharded over
// K simulated ranks per Algorithm 4: the k = log2(K) global qubits are
// rotated through two all-to-all transposes per layer (transverse-
// field mixer) or per-edge partner exchanges (xy mixers), while the
// diagonal precompute, phase operator, and objective reduction stay
// local. Equivalent to the mpi-backed QOKit classes ("gpumpi",
// "cusvmpi") on this package's in-process cluster substrate.
func SimulateQAOADistributed(n int, terms Terms, gamma, beta []float64, opts DistOptions) (*DistResult, error) {
	return distsim.SimulateQAOA(context.Background(), n, terms, gamma, beta, opts)
}

// SimulateQAOADistributedOutputs runs the sharded simulation and
// serves its measurement-style outputs gather-free: CVaR levels,
// sampled shots, ground-state overlap, and per-index probability
// queries are all computed on the shards (per-rank sorts and alias
// tables plus scalar/short-vector all-reduces), so no node ever holds
// a 2^n buffer. This is what makes the §V-B memory-reduced
// representations — float32 shards, uint16-coded diagonal slices —
// full solver backends: set DistOptions.Precision as usual and leave
// Gather false (it is rejected here). Sampling uses a two-stage alias
// draw (rank by global mass, then index within the winning shard);
// with a fixed OutputSpec.Seed the shot sequence is reproducible.
func SimulateQAOADistributedOutputs(n int, terms Terms, gamma, beta []float64, opts DistOptions, spec OutputSpec) (*DistResult, error) {
	return distsim.SimulateQAOAOutputs(context.Background(), n, terms, gamma, beta, opts, spec)
}

// SampleDistributed draws shots basis-state samples from the QAOA
// state evolved on the sharded backend, without gathering it — the
// convenience wrapper over SimulateQAOADistributedOutputs for callers
// that only want measurement outcomes at shard scale.
func SampleDistributed(n int, terms Terms, gamma, beta []float64, shots int, seed int64, opts DistOptions) ([]uint64, error) {
	res, err := distsim.SimulateQAOAOutputs(context.Background(), n, terms, gamma, beta, opts,
		OutputSpec{Shots: shots, Seed: seed})
	if err != nil {
		return nil, err
	}
	return res.Samples, nil
}

// DistGradResult carries one distributed adjoint-gradient evaluation:
// the energy, the exact ∂E/∂γ_ℓ and ∂E/∂β_ℓ, and the run's
// communication counters.
type DistGradResult = distsim.GradResult

// DistributedGradEngine evaluates energies and exact adjoint
// gradients on the sharded state vector: one forward pass plus one
// cost-weighted reverse pass through exact layer inverses, with every
// derivative reduction running on each rank's local slice and one
// vector all-reduce combining the per-layer partials. Bound to one
// problem; reuses the cluster group and all per-rank buffers across
// evaluations. Its FlatObjective plugs straight into Adam /
// GradientDescent, so gradient-based optimization of a state too
// large for one node costs ≈ 4 sharded simulations per step,
// independent of depth — the single-node adjoint win (ROADMAP
// "Gradients") carried onto the cluster. Safe for up to
// DistOptions.Concurrency concurrent evaluations: each one leases its
// own rank group and buffers (NewService with WorkersPerEvaluator up to
// that concurrency builds a request queue over exactly this).
type DistributedGradEngine = distsim.GradEngine

// NewDistributedGradEngine builds a distributed gradient engine: each
// rank's diagonal slice is precomputed locally (no communication) and
// two state buffers per rank are allocated for the adjoint pair.
func NewDistributedGradEngine(n int, terms Terms, opts DistOptions) (*DistributedGradEngine, error) {
	return distsim.NewGradEngine(n, terms, opts)
}

// SimulateQAOADistributedGrad evaluates the distributed energy and
// exact adjoint gradient with a fresh engine — the one-shot
// counterpart of DistributedGradEngine for callers that do not loop.
func SimulateQAOADistributedGrad(n int, terms Terms, gamma, beta []float64, opts DistOptions) (*DistGradResult, error) {
	return distsim.SimulateQAOAGrad(context.Background(), n, terms, gamma, beta, opts)
}
