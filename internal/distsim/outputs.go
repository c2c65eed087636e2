// Gather-free distributed outputs: every rank runs the shared output
// stage (evaluator.Stage) over its evolved shard's View inside the rank
// loop (GradEngine.evolve), with its cluster endpoint as the collective,
// so no node ever holds a node-scale buffer. Each rank needs only |ψ_x|²
// and the cost of the basis states it stores, so the §V-B
// memory-reduced shards (float32 planes, uint16-coded diagonal slices)
// serve as full solver backends. Group shards hold a state stored over
// the cost's symmetry group (GradEngine): each stored amplitude stands
// for the 2^h members of its orbit, {x, x ⊕ 1…1} on half shards.
package distsim

import (
	"context"

	"qokit/internal/cluster"
	"qokit/internal/evaluator"
)

// The distributed engine serves the output and chunked sampling
// contracts, so a serving layer schedules sampling and CVaR requests
// over its rank-group lease exactly like energy requests.
var _ evaluator.SampleStreamer = (*GradEngine)(nil)

// EvalOutputs evolves the sharded state at the flat parameter vector
// once on the engine's rank group and returns the spec's outputs
// (evaluator.OutputEvaluator): CVaR levels, the cost variance, the
// ground-state overlap, the most probable state, probability queries
// and shots, reproducible for a fixed spec.Seed. Safe for concurrent
// calls, which take turns on the lease; communication accumulates on
// the engine's counters (Counters / RankCounters).
func (e *GradEngine) EvalOutputs(ctx context.Context, x []float64, spec evaluator.OutputSpec) (*evaluator.Outputs, error) {
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return nil, err
	}
	out := &evaluator.Outputs{}
	st, err := evaluator.NewStage(e.n, spec, out)
	if err != nil {
		return nil, err
	}
	err = e.eval(ctx, &run{
		gamma: gamma, beta: beta, energy: &out.Energy,
		outputs: func(c *cluster.Comm, v evaluator.View) error { return st.Run(ctx, c, v) },
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StreamSamples evolves the sharded state at the flat parameter vector
// once and streams spec.Shots sampled global basis indices to fn in
// chunks of at most evaluator.SampleChunkSize (evaluator.SampleStreamer),
// drawn as EvalOutputs draws them: the concatenated chunks are exactly
// its Outputs.Samples for the same spec. fn runs once per chunk on rank
// 0, and a non-nil fn error aborts all ranks and is returned verbatim.
func (e *GradEngine) StreamSamples(ctx context.Context, x []float64, spec evaluator.OutputSpec, fn func(chunk []uint64) error) error {
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return err
	}
	st, err := evaluator.NewStream(e.n, spec, fn)
	if err != nil || spec.Shots == 0 {
		return err
	}
	return e.eval(ctx, &run{
		gamma: gamma, beta: beta,
		outputs: func(c *cluster.Comm, v evaluator.View) error { return st.Run(ctx, c, v) },
	})
}
