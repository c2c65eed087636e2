// Durable optimization jobs: a serving pool drives a gradient
// optimizer whose complete state is checkpointed through
// internal/optimize's on-disk codec after every iteration. A
// pool that crashes (or is deliberately restarted) picks the job back
// up from the checkpoint and finishes it bit-identical to a pool that
// never stopped — Adam is deterministic, and the snapshot fully
// determines the remaining trajectory. The checkpoint file doubles as
// the in-flight marker: a completed job removes it, so a restarted
// pool knows nothing is pending.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"qokit/internal/optimize"
)

// JobOptions configures a durable optimization job.
type JobOptions struct {
	// Adam configures the optimizer. Resume and Checkpoint are managed
	// by the job runner — setting either is an error.
	Adam optimize.AdamOptions
	// CheckpointPath, when non-empty, makes the job durable: optimizer
	// state lands there after every iteration, an existing file
	// resumes the job from it, and a completed job removes it.
	CheckpointPath string
}

// OptimizeAdam runs a (optionally durable) Adam trajectory against the
// pool's gradient objective, starting at the flat parameter vector x0
// — or at the checkpointed state when CheckpointPath holds one from an
// interrupted job, in which case x0 only fixes the dimension. The
// first simulator error stops the run at the iteration boundary and is
// returned; the checkpoint survives for the next attempt.
func (s *Service) OptimizeAdam(ctx context.Context, x0 []float64, jo JobOptions) (optimize.AdamResult, error) {
	if !s.caps.Grad {
		return optimize.AdamResult{}, fmt.Errorf("serve: pool evaluators do not support gradients")
	}
	if jo.Adam.Resume != nil || jo.Adam.Checkpoint != nil {
		return optimize.AdamResult{}, fmt.Errorf("serve: JobOptions.Adam.Resume/Checkpoint are managed by the job runner")
	}
	opt := jo.Adam
	var simErr error
	if jo.CheckpointPath != "" {
		st, err := optimize.LoadAdamState(jo.CheckpointPath)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// No checkpoint yet: a fresh job.
		case err != nil:
			return optimize.AdamResult{}, fmt.Errorf("serve: reading job checkpoint: %w", err)
		default:
			if len(st.X) != len(x0) {
				return optimize.AdamResult{}, fmt.Errorf("serve: job checkpoint has dimension %d, x0 has %d", len(st.X), len(x0))
			}
			opt.Resume = st
		}
		opt.Checkpoint = func(st *optimize.AdamState) error {
			if simErr != nil {
				return simErr // stop instead of iterating on garbage zeros
			}
			return optimize.SaveAdamState(jo.CheckpointPath, st)
		}
	}
	res := optimize.Adam(s.GradObjective(ctx, &simErr), x0, opt)
	if simErr != nil {
		return res, simErr
	}
	if res.Err != nil {
		return res, res.Err
	}
	if jo.CheckpointPath != "" {
		if err := os.Remove(jo.CheckpointPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return res, fmt.Errorf("serve: removing completed job checkpoint: %w", err)
		}
	}
	return res, nil
}
