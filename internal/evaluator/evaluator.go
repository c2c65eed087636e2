// Package evaluator defines the one contract every QAOA evaluation
// engine in this repository implements: energy and energy-plus-exact-
// gradient queries on a flat parameter vector, with capability and
// cost metadata so a scheduler can place work without knowing engine
// internals.
//
// The contract is deliberately minimal — the flat vector
// [γ₀…γ_{p−1}, β₀…β_{p−1}] is exactly what the gradient optimizers
// already consume, and a context.Context threads cancellation through
// every implementation — so the single-node simulator (core.Simulator),
// the batch engine (sweep.Engine), the adjoint engine (grad.Engine),
// and the sharded cluster engine (distsim.GradEngine) are
// interchangeable behind it. internal/serve schedules requests over
// pools of these.
package evaluator

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Caps describes what an evaluator can do and what one evaluation
// costs, so a scheduler can size worker pools and place requests.
type Caps struct {
	// NumQubits is the problem size the evaluator is bound to.
	NumQubits int
	// Grad reports whether EnergyGrad is implemented (engines without
	// an adjoint path must return ErrNoGrad from EnergyGrad).
	Grad bool
	// MaxConcurrent is the number of evaluations the engine can serve
	// concurrently without transient buffer allocations or queueing
	// (0 = no inherent limit). Schedulers should not run more workers
	// against one evaluator than this.
	MaxConcurrent int
	// Ranks is the cluster width behind one evaluation (1 for
	// single-node engines).
	Ranks int
	// StateBytes is the state-buffer memory one in-flight evaluation
	// pins, summed over ranks — the dominant cost-model term.
	StateBytes int64
	// Outputs reports whether the evaluator also implements
	// OutputEvaluator (sampling, CVaR, overlap, probability queries).
	Outputs bool
	// Streaming reports whether the evaluator also implements
	// SampleStreamer (chunked sampling with memory bounded by the
	// chunk size rather than the shot count).
	Streaming bool
}

// Evaluator is the unified evaluation contract. x is the flat
// parameter vector [γ₀…γ_{p−1}, β₀…β_{p−1}] (even length); the depth
// p is inferred per call, so one evaluator serves mixed-depth
// workloads. Implementations must be safe for at least
// Caps().MaxConcurrent concurrent calls and must honor ctx
// cancellation between (not necessarily within) simulator passes.
type Evaluator interface {
	// Energy evaluates E(x) = ⟨γ,β|Ĉ|γ,β⟩.
	Energy(ctx context.Context, x []float64) (float64, error)
	// EnergyGrad evaluates E(x) and writes the exact gradient ∇E into
	// grad (len(grad) == len(x)).
	EnergyGrad(ctx context.Context, x, grad []float64) (float64, error)
	// Caps returns the evaluator's capability/cost metadata.
	Caps() Caps
}

// ErrNonFiniteAngle reports a NaN or infinite QAOA angle. Simulating
// one would return a NaN energy and gradient instead of an error.
var ErrNonFiniteAngle = errors.New("evaluator: non-finite angle")

// SplitFlat validates a flat parameter vector and returns its γ and β
// halves (aliases into x, not copies).
func SplitFlat(x []float64) (gamma, beta []float64, err error) {
	if len(x)%2 != 0 {
		return nil, nil, fmt.Errorf("evaluator: flat parameter vector has odd length %d", len(x))
	}
	p := len(x) / 2
	if err := CheckAngles(x[:p], x[p:]); err != nil {
		return nil, nil, err
	}
	return x[:p], x[p:], nil
}

// CheckAngles returns an error wrapping ErrNonFiniteAngle that names
// the first NaN or ±Inf entry of gamma, then beta; nil if there is none.
func CheckAngles(gamma, beta []float64) error {
	for i, v := range gamma {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: gamma[%d] = %v", ErrNonFiniteAngle, i, v)
		}
	}
	for i, v := range beta {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: beta[%d] = %v", ErrNonFiniteAngle, i, v)
		}
	}
	return nil
}

// CheckGradStorage validates the (x, grad) pair of an EnergyGrad call.
func CheckGradStorage(x, grad []float64) error {
	if len(grad) != len(x) {
		return fmt.Errorf("evaluator: len(grad)=%d does not match len(x)=%d", len(grad), len(x))
	}
	return nil
}
