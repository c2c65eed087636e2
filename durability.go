package qokit

import (
	"context"

	"qokit/internal/distsim"
	"qokit/internal/serve"
)

// Durability: checkpoint/restart for long-running work. Two layers
// compose here — distributed forward runs snapshot their sharded state
// at layer boundaries (SimulateQAOADistributedCheckpointed), and
// optimizer trajectories snapshot their complete Adam state after each
// iteration (Service.OptimizeAdam via JobOptions). Both use the same
// framed, checksummed, atomically-renamed on-disk container, and both
// resume bit-identical to an uninterrupted run: the simulator and Adam
// are deterministic, so a snapshot fully determines the remaining
// trajectory.

// JobOptions configures a durable optimization job on a Service: the
// Adam settings plus the checkpoint path and save cadence. See
// Service.OptimizeAdam.
type JobOptions = serve.JobOptions

// DistCheckpointOptions configures layer-boundary snapshots for a
// distributed forward run: the snapshot path and the capture cadence
// in layers.
type DistCheckpointOptions = distsim.CheckpointOptions

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
