package qokit

import (
	"qokit/internal/distsim"
	"qokit/internal/evaluator"
	"qokit/internal/grad"
	"qokit/internal/serve"
	"qokit/internal/sweep"
)

// This file is the public façade of the evaluation service — the
// request-queue → engine-pool layer that unifies the three evaluation
// worlds (single-node point/batch, adjoint gradients, distributed
// sharded evaluation) behind one contract:
//
//   - Evaluator is the contract every engine implements: Energy and
//     EnergyGrad on the flat parameter vector [γ…, β…], plus Caps
//     metadata (qubit count, gradient support, concurrency, ranks,
//     state memory) a scheduler can place work with. Simulator,
//     SweepEngine, GradEngine, and DistributedGradEngine all satisfy
//     it, as does Service itself.
//   - Service schedules point, gradient, and batch requests FIFO over
//     a pool of evaluators with worker-affine buffer reuse and
//     context.Context cancellation at every layer.
//
// One Service therefore serves a landscape grid, a stream of optimizer
// steps, and concurrent sharded evaluations through the same queue —
// the "distributed sweep/optimizer service" scaling rung of the
// ROADMAP.

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

// ServiceOptions configures a Service's worker pool.
type ServiceOptions = serve.Options

// NewService builds a service over an explicit evaluator pool — mix
// single-node engines and distributed engines freely, as long as they
// are bound to the same problem size. Close the service to stop its
// workers.
func NewService(evals []Evaluator, opts ServiceOptions) (*Service, error) {
	return serve.New(evals, opts)
}

// NewLocalService builds a service over one shared single-node
// simulator: a sweep engine supplies pooled point-energy buffers and
// pooled adjoint workspaces, so the service's warm path allocates no
// state vectors. workersPerEvaluator ≤ 0 selects GOMAXPROCS workers.
func NewLocalService(sim *Simulator, opts ServiceOptions) (*Service, error) {
	eng := sweep.New(sim, sweep.Options{Workers: opts.WorkersPerEvaluator})
	return serve.New([]Evaluator{eng}, opts)
}

// NewDistributedService builds a service over one distributed engine
// pool: each of workersPerEvaluator workers drives its own rank-group
// lease, so that many sharded evaluations run concurrently on the
// cluster substrate — the lifting of the old single-flight
// restriction. The DistOptions' Concurrency is raised to the worker
// count when lower.
func NewDistributedService(n int, terms Terms, dopts DistOptions, opts ServiceOptions) (*Service, error) {
	if dopts.Concurrency < opts.WorkersPerEvaluator {
		dopts.Concurrency = opts.WorkersPerEvaluator
	}
	eng, err := distsim.NewGradEngine(n, terms, dopts)
	if err != nil {
		return nil, err
	}
	return serve.New([]Evaluator{eng}, opts)
}

// NewGradEvaluator exposes the pooled adjoint engine as an Evaluator —
// useful for assembling heterogeneous NewService pools. (Service
// objectives come from the service itself: Service.Objective feeds the
// derivative-free optimizers, Service.GradObjective the gradient
// ones.)
func NewGradEvaluator(sim *Simulator) Evaluator { return grad.New(sim) }
