package qokit

import (
	"context"
	"fmt"

	"qokit/internal/core"
	"qokit/internal/distsim"
	"qokit/internal/evaluator"
	"qokit/internal/lightcone"
	"qokit/internal/registry"
	"qokit/internal/serve"
)

// This file is the public façade of the problem registry and the
// elastic evaluation service — the registered-problem → autoscaled-pool
// layer that replaces caller-built simulators feeding a fixed pool:
//
//   - ProblemRegistry holds each registered problem's precomputed cost
//     diagonal in the stored form its engines evolve over: the entries
//     at the 2^(n−h) indices a state stored over the cost's symmetry
//     group keeps (the term group under the x mixer, h = 0 under the
//     xy mixers), as 2-byte codes when they form an exact grid — a
//     LABS entry is 2·2^(n−2) bytes instead of 8·2ⁿ. Entries live in a
//     byte-budgeted LRU keyed by a canonical hash of the terms, qubit
//     count, and mixer family. Every evaluator factory for the same
//     problem shares one precompute; a second batch against the same
//     graph performs zero diagonal work.
//   - EvaluatorFactory describes how to build an evaluator — and what
//     it will cost (EvaluatorCaps up front, before any 2^n allocation)
//     — so a scheduler can pack heterogeneous capacity against a
//     memory budget.
//   - NewElasticService schedules the same FIFO request queue as
//     NewService over a worker pool that grows from observed queue
//     depth and decays back to a floor, each worker building its own
//     evaluator from a factory and retiring it when idle.
//
// NewRegistryService ties the three together: registry + key + options
// in, autoscaled service out, routed to the single-node, distributed,
// or light-cone backend.

// ProblemSpec identifies a problem for registration: cost polynomial,
// qubit count, mixer family, and (for xy mixers) the Hamming-weight
// sector.
type ProblemSpec = registry.Spec

// ProblemKey is the canonical problem hash — identical problems
// registered from different term orderings map to the same key.
type ProblemKey = registry.Key

// ProblemRegistry is the shared problem cache. Safe for concurrent
// use; see RegistryStats for its counters.
type ProblemRegistry = registry.Registry

// RegistryOptions configures a ProblemRegistry (its byte budget over
// the entries' stored forms).
type RegistryOptions = registry.Options

// RegistryStats reports registry cache behavior — Precomputes is the
// counter that must stay flat across warm re-acquisitions.
type RegistryStats = registry.Stats

// ProblemHandle is one refcounted acquisition of a registered
// problem's cached stored form; the data stays valid until Release
// even if the entry is evicted meanwhile. Diag expands it to the full
// 2^n diagonal on each call.
type ProblemHandle = registry.Handle

// NewProblemRegistry builds an empty problem registry.
func NewProblemRegistry(opts RegistryOptions) *ProblemRegistry { return registry.New(opts) }

// ProblemKeyFor computes a spec's canonical key without registering it.
func ProblemKeyFor(spec ProblemSpec) (ProblemKey, error) { return registry.KeyFor(spec) }

// EvaluatorFactory builds evaluators on demand for an elastic service
// and reports their cost metadata (EvaluatorCaps) before any build.
type EvaluatorFactory = evaluator.Factory

// ElasticOptions configures an elastic service's worker pool: floor,
// ceiling, memory budget, scale-up threshold, and idle decay.
type ElasticOptions = serve.ElasticOptions

// NewElasticService builds an autoscaled service over evaluator
// factories: MinWorkers workers start immediately, queue backlog grows
// the pool toward MaxWorkers (≤ 0: one worker per factory) within the
// memory budget, and workers idle past IdleDecay retire their
// evaluators back to the factories. Each worker builds and retires its
// own evaluator. The request API — and its numerics — are identical to
// NewService's.
func NewElasticService(factories []EvaluatorFactory, opts ElasticOptions) (*Service, error) {
	return serve.NewElastic(factories, opts)
}

// registryAcquire adapts a registry acquisition to the factories'
// diagonal-lease contract.
func registryAcquire(reg *ProblemRegistry, key ProblemKey) core.AcquireFunc {
	return func(ctx context.Context) (core.DiagSource, error) {
		h, err := reg.Acquire(ctx, key)
		if err != nil {
			return nil, err
		}
		return h, nil
	}
}

// registeredSpec looks up a registered problem's spec, rejecting a nil
// registry with an error instead of a panic.
func registeredSpec(reg *ProblemRegistry, key ProblemKey) (ProblemSpec, error) {
	if reg == nil {
		return ProblemSpec{}, fmt.Errorf("qokit: nil ProblemRegistry")
	}
	return reg.Spec(key)
}

// NewSweepFactory builds single-node workspaces (energies and adjoint
// gradients) over a registered problem. Every build shares one
// read-only simulator over the registry entry's stored form, and pins
// two state buffers of its own; Caps reports them exactly, from the
// registered terms, before the first build. The workersPerBuild
// argument is ignored: every build serves one worker.
// The spec's mixer and Hamming weight override opts.
func NewSweepFactory(reg *ProblemRegistry, key ProblemKey, opts Options, workersPerBuild int) (EvaluatorFactory, error) {
	spec, err := registeredSpec(reg, key)
	if err != nil {
		return nil, err
	}
	opts.Mixer = spec.Mixer
	opts.HammingWeight = spec.HammingWeight
	return core.NewFactory(spec.N, spec.Terms, opts, registryAcquire(reg, key)), nil
}

// NewDistributedFactory builds sharded cluster engines over a
// registered problem. Each build is one rank-group lease whose per-rank
// cost slices are cut from the registry entry's stored form —
// growing the pool by one engine pays for cluster state buffers only,
// never a second precompute. Each rank holds only its 2^(n−h−k)
// entries, as uint16 codes alone when they form an exact grid, as
// NewDistributedGradEngine's ranks do. The spec's
// mixer and Hamming weight override dopts.
func NewDistributedFactory(reg *ProblemRegistry, key ProblemKey, dopts DistOptions) (EvaluatorFactory, error) {
	spec, err := registeredSpec(reg, key)
	if err != nil {
		return nil, err
	}
	dopts.Mixer = spec.Mixer
	dopts.HammingWeight = spec.HammingWeight
	return distsim.NewFactoryFromSource(spec.N, spec.Terms, dopts, registryAcquire(reg, key))
}

// NewLightConeFactory builds the light-cone MaxCut backend over a
// registered problem, recovering the weighted edge list from the
// registered cost polynomial. The problem must be a MaxCut instance
// under the transverse-field mixer; cone extraction runs once, at
// factory construction, and every build shares the engine.
func NewLightConeFactory(reg *ProblemRegistry, key ProblemKey, opts LightConeOptions) (EvaluatorFactory, error) {
	spec, err := registeredSpec(reg, key)
	if err != nil {
		return nil, err
	}
	if spec.Mixer != MixerX {
		return nil, fmt.Errorf("qokit: light-cone backend requires the transverse-field mixer, problem registered with %v", spec.Mixer)
	}
	return lightcone.NewFactoryFromTerms(spec.N, spec.Terms, opts)
}

// RegistryServiceOptions configures NewRegistryService. The zero value
// serves the single-node statevector backend with default simulator
// options on a one-worker pool: each build serves one worker, and
// Elastic.MaxWorkers ≤ 0 means one worker per factory, so set
// Elastic.MaxWorkers to let the pool grow with queue depth.
type RegistryServiceOptions struct {
	// Simulator configures single-node builds (backend, precision,
	// worker count, …). The registered spec's mixer and Hamming weight
	// always win over the same fields here.
	Simulator Options
	// WorkersPerBuild is ignored: every build serves one worker.
	WorkersPerBuild int
	// Distributed, when non-nil, serves the problem on the sharded
	// cluster backend instead: each elastic build is one rank-group
	// lease over registry-cached diagonal shards.
	Distributed *DistOptions
	// LightCone, when non-nil, serves the problem on the light-cone
	// MaxCut backend instead (the problem must be a MaxCut polynomial
	// under the transverse-field mixer).
	LightCone *LightConeOptions
	// Elastic configures the pool (floor, ceiling, memory budget,
	// idle decay), its worker count the service's only concurrency
	// setting. MaxWorkers ≤ 0 means one worker. The degenerate
	// MinWorkers == MaxWorkers setting is a fixed pool with the
	// registry still deduplicating precompute.
	Elastic ElasticOptions
}

// NewRegistryService builds an autoscaled evaluation service for one
// registered problem, routed to the backend the options select. The
// first build acquires the problem's diagonal from the registry cache;
// every later build — and every other service for the same key —
// reuses it, so constructing N services for one graph precomputes
// once.
func NewRegistryService(reg *ProblemRegistry, key ProblemKey, opts RegistryServiceOptions) (*Service, error) {
	if opts.Distributed != nil && opts.LightCone != nil {
		return nil, fmt.Errorf("qokit: RegistryServiceOptions selects both the distributed and light-cone backends")
	}
	var f EvaluatorFactory
	var err error
	switch {
	case opts.Distributed != nil:
		f, err = NewDistributedFactory(reg, key, *opts.Distributed)
	case opts.LightCone != nil:
		f, err = NewLightConeFactory(reg, key, *opts.LightCone)
	default:
		f, err = NewSweepFactory(reg, key, opts.Simulator, opts.WorkersPerBuild)
	}
	if err != nil {
		return nil, err
	}
	return NewElasticService([]EvaluatorFactory{f}, opts.Elastic)
}
