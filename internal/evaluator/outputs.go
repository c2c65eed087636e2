package evaluator

import (
	"context"
	"fmt"
)

// OutputSpec selects the measurement-style outputs of one evaluation —
// the quantities a hardware QAOA run would produce from shots rather
// than from the exact state. The state-vector engines compute them with
// one output stage (Stage), gather-free: a sharded engine never
// materializes a node-scale buffer, which is what lets the §V-B
// memory-reduced shards (float32 planes, uint16-coded diagonal slices)
// serve as full solver backends.
//
// The zero value requests nothing beyond the always-present outputs
// (energy, ground-state overlap, minimum cost, most probable state).
type OutputSpec struct {
	// CVaRAlphas requests the Conditional Value at Risk objective at
	// each level α ∈ (0, 1]; Outputs.CVaR holds one entry per level.
	CVaRAlphas []float64
	// Shots requests that many sampled basis-state indices
	// (Outputs.Samples), drawn from |ψ|² with the engine's sampler.
	// At most MaxShotsPerRequest per request; larger shot counts go
	// through SampleStreamer, whose memory is bounded by the chunk
	// size instead of the shot count.
	Shots int
	// Seed seeds the sampling streams; a fixed seed reproduces the
	// exact shot sequence for a given engine configuration.
	Seed int64
	// ProbIndices requests |ψ_x|² at each listed global basis index
	// (Outputs.Probs holds one entry per index).
	ProbIndices []uint64
	// Variance requests the cost variance Var(C) = ⟨C²⟩ − ⟨C⟩² of the
	// measurement distribution (Outputs.Variance) — the landscape
	// diagnostic that tells a flat optimum from a sharp one.
	Variance bool
}

const (
	// MaxShotsPerRequest bounds OutputSpec.Shots for the buffered
	// EvalOutputs path. Outputs.Samples is allocated at 8 B per shot
	// inside the engine, so an unvalidated shot count lets one request
	// pin arbitrary memory per in-flight evaluation; 2²⁰ shots (8 MiB)
	// is far beyond statistical need at these problem sizes while
	// keeping the worst case smaller than a single n = 20 state.
	MaxShotsPerRequest = 1 << 20
	// SampleChunkSize is the fixed chunk length of the streaming
	// sample path: SampleStreamer implementations draw into one
	// reused buffer of this many indices, independent of the total
	// shot count.
	SampleChunkSize = 4096
)

// Validate checks the spec against the problem size for the buffered
// EvalOutputs path, where Outputs.Samples is allocated at the shot
// count. Every violation names the offending field.
func (s OutputSpec) Validate(n int) error {
	if err := s.ValidateStreaming(n); err != nil {
		return err
	}
	if s.Shots > MaxShotsPerRequest {
		return fmt.Errorf("evaluator: OutputSpec.Shots=%d exceeds MaxShotsPerRequest=%d; stream larger shot counts through SampleStreamer",
			s.Shots, MaxShotsPerRequest)
	}
	return nil
}

// ValidateStreaming checks the spec for the streaming sample path:
// identical to Validate except that Shots is unbounded above, since
// streaming allocates per chunk, not per shot.
func (s OutputSpec) ValidateStreaming(n int) error {
	for i, a := range s.CVaRAlphas {
		if !validLevel(a) {
			return fmt.Errorf("evaluator: OutputSpec.CVaRAlphas[%d]=%v outside (0,1]", i, a)
		}
	}
	if s.Shots < 0 {
		return fmt.Errorf("evaluator: OutputSpec.Shots=%d must be ≥ 0", s.Shots)
	}
	for i, x := range s.ProbIndices {
		if x>>uint(n) != 0 {
			return fmt.Errorf("evaluator: OutputSpec.ProbIndices[%d]=%d outside the %d-qubit index range", i, x, n)
		}
	}
	return nil
}

// Outputs carries one evaluation's measurement-style outputs.
type Outputs struct {
	// Energy is ⟨ψ|Ĉ|ψ⟩, the same value Energy(x) returns.
	Energy float64
	// Overlap is the ground-state probability Σ_{x∈argmin} |ψ_x|².
	Overlap float64
	// MinCost is the minimum of the cost diagonal (over the feasible
	// subspace for xy mixers).
	MinCost float64
	// CVaR holds CVaR(α) per OutputSpec.CVaRAlphas entry.
	CVaR []float64
	// Samples holds OutputSpec.Shots sampled global basis indices.
	Samples []uint64
	// Probs holds |ψ_x|² per OutputSpec.ProbIndices entry.
	Probs []float64
	// MaxProbIndex and MaxProb identify the single most probable basis
	// state (ties resolve to the lowest index).
	MaxProbIndex uint64
	MaxProb      float64
	// Variance is Var(C) over the measurement distribution, filled when
	// OutputSpec.Variance is set.
	Variance float64
}

// OutputEvaluator is the optional extension implemented by engines
// that serve measurement-style outputs (sampling, CVaR, overlap,
// probability queries) in addition to energies and gradients. Caps
// with Outputs=true advertises it.
type OutputEvaluator interface {
	Evaluator
	// EvalOutputs evolves the state at x once and returns the outputs
	// the spec selects.
	EvalOutputs(ctx context.Context, x []float64, spec OutputSpec) (*Outputs, error)
}

// SampleStreamer is the optional extension implemented by engines that
// serve sampling with memory bounded by the chunk size rather than the
// shot count: the state is evolved once, and spec.Shots indices are
// drawn from |ψ|² into one reused buffer of at most SampleChunkSize
// entries, delivered to fn chunk by chunk. The concatenation of the
// chunks is exactly the sequence EvalOutputs would return in
// Outputs.Samples for the same spec — but spec.Shots may exceed
// MaxShotsPerRequest here, since no shot-count-sized buffer exists.
// Caps with Streaming=true advertises it.
type SampleStreamer interface {
	OutputEvaluator
	// StreamSamples evolves the state at x once and streams spec.Shots
	// sampled basis indices to fn in chunks. The chunk slice is reused
	// between calls: fn must copy anything it keeps. A non-nil error
	// from fn aborts the stream and is returned verbatim.
	StreamSamples(ctx context.Context, x []float64, spec OutputSpec, fn func(chunk []uint64) error) error
}
