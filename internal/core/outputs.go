package core

import (
	"context"
	"fmt"
	"math/rand"

	"qokit/internal/evaluator"
	"qokit/internal/sampling"
)

// The Simulator also serves the measurement-style output contract:
// sampling, CVaR, overlap, and probability queries from one evolution.
// Like Energy, every call owns its state buffer, so concurrent
// EvalOutputs calls are safe.
var _ evaluator.OutputEvaluator = (*Simulator)(nil)

// EvalOutputs evolves the state at the flat parameter vector once and
// returns the outputs the spec selects (evaluator.OutputEvaluator).
func (s *Simulator) EvalOutputs(ctx context.Context, x []float64, spec evaluator.OutputSpec) (*evaluator.Outputs, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(s.n); err != nil {
		return nil, err
	}
	r, err := s.SimulateQAOA(gamma, beta)
	if err != nil {
		return nil, err
	}
	out := &evaluator.Outputs{
		Energy:  r.Expectation(),
		Overlap: r.Overlap(),
		MinCost: s.MinCost(),
	}
	if len(spec.CVaRAlphas) > 0 {
		out.CVaR = make([]float64, len(spec.CVaRAlphas))
		for i, a := range spec.CVaRAlphas {
			if out.CVaR[i], err = r.CVaR(a); err != nil {
				return nil, err
			}
		}
	}
	// Every output below walks the stored amplitudes; none expands a
	// group state to 2^n entries.
	out.MaxProb, out.MaxProbIndex = r.maxProb()
	if len(spec.ProbIndices) > 0 {
		out.Probs = make([]float64, len(spec.ProbIndices))
		for i, q := range spec.ProbIndices {
			out.Probs[i] = r.prob(int(s.rep(q)))
		}
	}
	if spec.Variance {
		out.Variance = r.Variance()
	}
	if spec.Shots > 0 {
		// Validate bounded Shots by MaxShotsPerRequest, so this is the
		// largest buffer a request can pin; the draw itself goes through
		// the same chunked path the streaming contract uses, checking
		// ctx at every chunk boundary.
		out.Samples = make([]uint64, 0, spec.Shots)
		err := r.sampleInChunks(ctx, spec.Shots, spec.Seed, func(chunk []uint64) error {
			out.Samples = append(out.Samples, chunk...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// The Simulator also serves the chunked sampling contract: shot counts
// beyond MaxShotsPerRequest stream through a SampleChunkSize buffer.
var _ evaluator.SampleStreamer = (*Simulator)(nil)

// StreamSamples evolves the state at the flat parameter vector once
// and streams spec.Shots sampled basis indices to fn in chunks of at
// most evaluator.SampleChunkSize (evaluator.SampleStreamer). With the
// same seed, the concatenated chunks equal the Outputs.Samples that
// EvalOutputs returns; only spec.Shots and spec.Seed are consulted.
func (s *Simulator) StreamSamples(ctx context.Context, x []float64, spec evaluator.OutputSpec, fn func(chunk []uint64) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return err
	}
	if err := spec.ValidateStreaming(s.n); err != nil {
		return err
	}
	if spec.Shots == 0 {
		return nil
	}
	r, err := s.SimulateQAOA(gamma, beta)
	if err != nil {
		return err
	}
	return r.sampleInChunks(ctx, spec.Shots, spec.Seed, fn)
}

// maxProb returns the largest |ψ_x|² and the first basis index x that
// attains it. It walks the stored amplitudes only: on a group state
// every other basis state repeats a stored value at a larger index, so
// the first maximum over all 2^n states is a stored index.
func (r *Result) maxProb() (float64, uint64) {
	maxP, maxIdx := -1.0, uint64(0)
	for i := 0; i < r.sim.stored(); i++ {
		if p := r.prob(i); p > maxP {
			maxP, maxIdx = p, uint64(i)
		}
	}
	return maxP, maxIdx
}

// sampleInChunks draws shots basis indices from r's |ψ|² into one
// reused chunk buffer, delivering each full (or final partial) chunk to
// fn. Both the buffered and the streaming sample paths draw through
// this one loop, which is what guarantees their shot sequences
// coincide. A shot draws a stored index i from an alias sampler over
// the stored |ψ_i|² (seeded by seed); on a group state it then takes
// i ⊕ g for an element g drawn uniformly from a second stream (seed+1),
// so basis state i ⊕ g comes up with probability |ψ_i|², as over the
// expanded state. This is how distsim's half shards draw, with the
// coin generalized to 2^h elements; a full state takes no second draw.
func (r *Result) sampleInChunks(ctx context.Context, shots int, seed int64, fn func(chunk []uint64) error) error {
	s := r.sim
	probs := make([]float64, s.stored())
	for i := range probs {
		probs[i] = r.prob(i)
	}
	sampler, err := sampling.NewSampler(probs, seed)
	if err != nil {
		return fmt.Errorf("core: sampling: %w", err)
	}
	draw := sampler.Sample
	if len(s.group) > 1 {
		pick := rand.New(rand.NewSource(seed + 1))
		draw = func() uint64 { return sampler.Sample() ^ s.group[pick.Intn(len(s.group))] }
	}
	chunkLen := evaluator.SampleChunkSize
	if shots < chunkLen {
		chunkLen = shots
	}
	chunk := make([]uint64, chunkLen)
	for drawn := 0; drawn < shots; {
		if err := ctx.Err(); err != nil {
			return err
		}
		c := chunk
		if rem := shots - drawn; rem < len(c) {
			c = c[:rem]
		}
		for i := range c {
			c[i] = draw()
		}
		drawn += len(c)
		if err := fn(c); err != nil {
			return err
		}
	}
	return nil
}
