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
// algorithm, the mixer family, whether the forward one-shots gather
// the full state, and
// the §V-B state precision — float64 or float32 shards (float32 halves
// state memory and fabric bytes). The shard form follows from the
// problem alone. With the x mixer the ranks store the state over the
// cost's XOR-symmetry group, by the single-node rule, when their layout
// holds it: LABS keeps a quarter of the state (h = 2), MaxCut and SK
// half, which divides each rank's state memory, kernel work and
// all-to-all bytes by 2^h at the same message counts. A rank whose cost
// slice is an exact grid of at most 2^(n−k)/16 levels keeps only its
// uint16 codes, 2 bytes per amplitude instead of 8, with results
// bit-identical to float64 slices. Caps().StateBytes reports the
// stored shards exactly, in the chosen precision, from the terms before
// any build, so service pools pack honestly.
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

// DistResult carries a forward one-shot's energy, ground-state overlap
// and minimum cost, the gathered state under DistOptions.Gather, and
// per-rank counters. An engine's measurement-style outputs come from
// DistributedGradEngine.EvalOutputs instead.
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

// DistributedGradEngine evaluates energies and exact adjoint
// gradients on the sharded state vector: one forward pass plus one
// cost-weighted reverse pass through exact layer inverses, with every
// derivative reduction running on each rank's local slice and one
// vector all-reduce combining the per-layer partials. Bound to one
// problem; reuses the cluster group and all per-rank buffers across
// evaluations. EnergyGradAngles returns one energy and gradient, and
// Counters the traffic the engine has moved so far. Its FlatObjective
// plugs straight into Adam, so gradient-based optimization of a state
// too large for one node costs ≈ 4 sharded simulations per step,
// independent of depth — the single-node adjoint win carried onto the
// cluster. EvalOutputs serves the measurement-style outputs
// gather-free through the output stage single-node simulators run as
// one rank: CVaR levels, the cost variance, shots, ground-state overlap
// and probability queries are computed on the shards, so no node holds
// a 2^n buffer; shots take a two-stage alias draw (rank by global mass,
// then index within the winning shard), reproducible for a fixed
// OutputSpec.Seed, and StreamSamples streams them in chunks. The engine
// rejects DistOptions.Gather, which only the forward one-shots read.
// One evaluation runs at a time on the engine's one rank group;
// concurrent callers take turns on it. More sharded evaluations in
// flight take more engines: let an elastic service build them over one
// precompute (NewDistributedFactory), or list several in NewService,
// each of which precomputes its own cost form.
type DistributedGradEngine = distsim.GradEngine

// NewDistributedGradEngine builds a distributed gradient engine: each
// rank's diagonal slice is precomputed locally (no communication) and
// two state buffers per rank are allocated for the adjoint pair.
func NewDistributedGradEngine(n int, terms Terms, opts DistOptions) (*DistributedGradEngine, error) {
	return distsim.NewGradEngine(n, terms, opts)
}
