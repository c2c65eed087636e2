package qokit

import (
	"context"

	"qokit/internal/distsim"
	"qokit/internal/optimize"
	"qokit/internal/serve"
)

// Durability: checkpoint/restart for long-running work. Two layers
// compose here — distributed forward runs snapshot their sharded state
// at layer boundaries (SimulateQAOADistributedCheckpointed), and
// optimizer trajectories snapshot their complete Adam state after each
// iteration (Service.OptimizeAdam via JobOptions, or Save/LoadAdamState
// directly). Both use the same framed, checksummed, atomically-renamed
// on-disk container, and both resume bit-identical to an uninterrupted
// run: the simulator and Adam are deterministic, so a snapshot fully
// determines the remaining trajectory.

// AdamState is a complete, serializable Adam optimizer state: the
// iterate, both moment vectors, bias corrections, iteration and
// evaluation counts, and the best-so-far pair.
type AdamState = optimize.AdamState

// GDState is the gradient-descent counterpart of AdamState.
type GDState = optimize.GDState

// SaveAdamState atomically persists an optimizer checkpoint at path.
func SaveAdamState(path string, st *AdamState) error {
	return optimize.SaveAdamState(path, st)
}

// LoadAdamState reads and verifies an optimizer checkpoint. A missing
// file surfaces as fs.ErrNotExist; a corrupted or truncated one fails
// its checksum with a clean error.
func LoadAdamState(path string) (*AdamState, error) {
	return optimize.LoadAdamState(path)
}

// JobOptions configures a durable optimization job on a Service: the
// Adam settings plus the checkpoint path and save cadence. See
// Service.OptimizeAdam.
type JobOptions = serve.JobOptions

// DistCheckpointOptions configures layer-boundary snapshots for a
// distributed forward run: the snapshot path and the capture cadence
// in layers.
type DistCheckpointOptions = distsim.CheckpointOptions

// ShardSnapshot is the durable image of a distributed run at one layer
// boundary (every rank's amplitude shard plus compatibility metadata).
type ShardSnapshot = distsim.ShardSnapshot

// SimulateQAOADistributedCheckpointed is SimulateQAOADistributed with
// durable layer-boundary snapshots: if ck.Path holds a compatible
// checkpoint the run resumes from it, replaying only the remaining
// layers; otherwise it starts fresh. Each captured boundary atomically
// replaces the file, and a completed run removes it. Checkpointed and
// uninterrupted runs agree bitwise in every shard representation
// (float64 or float32 planes, float64 or uint16-coded diagonal slices).
func SimulateQAOADistributedCheckpointed(n int, terms Terms, gamma, beta []float64, opts DistOptions, ck DistCheckpointOptions) (*DistResult, error) {
	return distsim.SimulateQAOACheckpointed(context.Background(), n, terms, gamma, beta, opts, ck)
}
