package qokit

import (
	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/poly"
	"qokit/internal/serve"
)

// This file is the public façade of the evaluation service — the
// request-queue → worker-pool layer that serves single-node points,
// batches and adjoint gradients and distributed sharded evaluation
// behind one contract:
//
//   - Evaluator is the contract every engine implements: Energy and
//     EnergyGrad on the flat parameter vector [γ…, β…], plus Caps
//     metadata (qubit count, gradient support, ranks, state memory) a
//     scheduler can place work with. Simulator, Workspace,
//     DistributedGradEngine, the light-cone and gate engines all
//     satisfy it, as does Service itself.
//   - Service schedules point, gradient, and batch requests FIFO over
//     a pool of workers, each bound to one evaluator and running one
//     evaluation at a time, with context.Context cancellation at every
//     layer. The pool's size is the only concurrency setting.
//
// Three constructors build a Service: NewService over caller-built
// evaluators, NewElasticService over evaluator factories, and
// NewRegistryService over a registered problem (registry.go). One
// Service serves a landscape grid, a stream of optimizer steps, and
// concurrent sharded evaluations through the same queue.

// Evaluator is the unified evaluation contract (energy and exact
// gradient on flat parameters, plus capability/cost metadata).
type Evaluator = evaluator.Evaluator

// EvaluatorCaps describes an evaluator's capabilities and per-
// evaluation cost.
type EvaluatorCaps = evaluator.Caps

// OutputSpec selects the measurement-style outputs of one evaluation:
// CVaR levels, sampled shots (with a reproducible seed), and
// per-index probability queries. The zero value requests only the
// always-present outputs (energy, overlap, minimum cost, most
// probable state).
type OutputSpec = evaluator.OutputSpec

// EvalOutputs carries one evaluation's measurement-style outputs.
type EvalOutputs = evaluator.Outputs

// OutputEvaluator is the optional evaluator extension serving
// measurement-style outputs. All engines in this package implement it
// — including the distributed ones, which compute every output
// gather-free on the shards — and Service forwards EvalOutputs
// requests through its queue when every pool member supports them
// (EvaluatorCaps.Outputs).
type OutputEvaluator = evaluator.OutputEvaluator

// SampleStreamer is the optional evaluator extension serving chunked
// sampling: shot counts beyond MaxShotsPerRequest stream through one
// SampleChunkSize buffer instead of a shot-count-sized allocation.
// The single-node engines and Service implement it; Service forwards
// StreamSamples through its queue when every pool member supports it
// (EvaluatorCaps.Streaming).
type SampleStreamer = evaluator.SampleStreamer

// ErrNonFiniteAngle is wrapped by the error every evaluation entry
// point (Service, Simulator and the engines) returns for a NaN or ±Inf
// angle; the message names the offending index.
var ErrNonFiniteAngle = evaluator.ErrNonFiniteAngle

// ErrNonFiniteCost is wrapped by the error every problem entry point
// (NewSimulator, NewSimulatorFromDiagonal, ProblemRegistry.Register and
// ProblemKeyFor) returns for a NaN or ±Inf term weight or diagonal
// entry.
var ErrNonFiniteCost = poly.ErrNonFiniteCost

// ErrQubitRange is wrapped by the error every entry point that takes a
// qubit count n (NewSimulator, NewSimulatorFromDiagonal,
// PrecomputeDiagonal, ProblemKeyFor, ProblemRegistry.Register,
// NewDistributedGradEngine, SimulateQAOADistributed and
// SimulateQAOADistributedCheckpointed) returns for n outside [1, 34].
var ErrQubitRange = costvec.ErrQubitRange

const (
	// MaxShotsPerRequest bounds OutputSpec.Shots on the buffered
	// EvalOutputs path; larger shot counts go through SampleStreamer.
	MaxShotsPerRequest = evaluator.MaxShotsPerRequest
	// SampleChunkSize is the chunk length of the streaming sample path.
	SampleChunkSize = evaluator.SampleChunkSize
)

// Service is the concurrent evaluation service: a FIFO request queue
// feeding a pool of evaluators. Safe for concurrent use; implements
// Evaluator itself, so services compose.
type Service = serve.Service

// NewService builds a service over caller-built evaluators — single-
// node workspaces (one per worker: Simulator.NewWorkspace), distributed
// engines, light-cone and gate engines, mixed freely as long as they
// are bound to the same problem size. Each evaluator gets one worker,
// so the list's length is the pool's size; an engine that is safe for
// concurrent calls (a Simulator, the light-cone engine, a Service) gets
// more workers by being listed more than once. A DistributedGradEngine
// runs one evaluation at a time, so listing it twice only queues: more
// sharded evaluations take more engines (NewDistributedFactory). Close
// the service to stop its workers; the evaluators stay the caller's.
func NewService(evals []Evaluator) (*Service, error) {
	return serve.New(evals)
}
