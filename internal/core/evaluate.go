package core

import (
	"context"

	"qokit/internal/evaluator"
)

// The Simulator implements evaluator.Evaluator and the output and
// streaming contracts directly: each call evolves in a fresh Workspace,
// so it is safe for any number of concurrent evaluations at the cost of
// allocating state per call. Sustained workloads should keep one
// Workspace per worker instead, which evaluates without allocating
// state.
var (
	_ evaluator.Evaluator      = (*Simulator)(nil)
	_ evaluator.SampleStreamer = (*Simulator)(nil)
)

// Energy evaluates the QAOA objective at the flat parameter vector
// [γ₀…γ_{p−1}, β₀…β_{p−1}].
func (s *Simulator) Energy(ctx context.Context, x []float64) (float64, error) {
	return s.NewWorkspace().Energy(ctx, x)
}

// EnergyGrad evaluates the objective and its exact adjoint gradient at
// the flat parameter vector, writing ∇E into grad.
func (s *Simulator) EnergyGrad(ctx context.Context, x, grad []float64) (float64, error) {
	return s.NewWorkspace().EnergyGrad(ctx, x, grad)
}

// EvalOutputs evolves the state at the flat parameter vector once and
// returns the outputs the spec selects (evaluator.OutputEvaluator).
func (s *Simulator) EvalOutputs(ctx context.Context, x []float64, spec evaluator.OutputSpec) (*evaluator.Outputs, error) {
	return s.NewWorkspace().EvalOutputs(ctx, x, spec)
}

// StreamSamples evolves the state at the flat parameter vector once
// and streams spec.Shots sampled basis indices to fn in chunks
// (evaluator.SampleStreamer).
func (s *Simulator) StreamSamples(ctx context.Context, x []float64, spec evaluator.OutputSpec, fn func(chunk []uint64) error) error {
	return s.NewWorkspace().StreamSamples(ctx, x, spec, fn)
}

// Caps reports the simulator's evaluation metadata: gradient-capable,
// single rank, and the bytes of one stored state buffer.
func (s *Simulator) Caps() evaluator.Caps { return capsFor(s.n, s.pivots(), s.opts) }
