package core

import (
	"context"

	"qokit/internal/evaluator"
)

// The Simulator implements evaluator.Evaluator directly: each call
// evolves in a fresh Workspace, so it is safe for any number of
// concurrent evaluations at the cost of allocating state per call.
// Sustained workloads should keep one Workspace per worker instead,
// which evaluates with zero warm allocations.
var _ evaluator.Evaluator = (*Simulator)(nil)

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

// Caps reports the simulator's evaluation metadata: gradient-capable,
// no concurrency limit (every call owns its buffers), single rank, and
// the bytes of one state buffer.
func (s *Simulator) Caps() evaluator.Caps { return capsFor(s.n, s.opts) }
