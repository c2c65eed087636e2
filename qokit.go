// Package qokit is a fast simulator for the Quantum Approximate
// Optimization Algorithm (QAOA), a Go reproduction of the system
// described in Lykov et al., "Fast Simulation of High-Depth QAOA
// Circuits" (SC 2023, arXiv:2309.04841) and its QOKit framework.
//
// The central idea: QAOA's phase operator is diagonal and identical in
// every layer and every objective evaluation, so the simulator
// precomputes the 2^n cost diagonal once per problem. Each layer then
// costs one elementwise multiply plus the in-place mixer (Algorithm 1–2
// of the paper, qubit pairs fused and cache-tiled into 2–3 passes over
// the state on the default backend), and the QAOA objective is a single
// inner product — orders of magnitude cheaper than gate-by-gate
// simulation for dense, high-order objectives like LABS.
//
// Mirroring QOKit, the package has two levels:
//
//   - one-line helpers for common problems (MaxCutTerms, LABSTerms,
//     SATTerms, PortfolioData.PortfolioTerms) feeding NewSimulator,
//   - a low-level API (ChooseSimulator, Options, backends, mixers,
//     the distributed engine with its float32 and uint16-coded shards)
//     for everything else.
//
// The surface is the simulator, its outputs and the engines that serve
// them. Baselines and analytics (classical heuristics, sampling
// statistics, the p = 1 formulas, tensor-network contraction) live in
// internal packages that the CLIs, tests and examples import directly.
//
// A minimal end-to-end evaluation of the QAOA objective — the paper's
// Listing 1 — looks like:
//
//	terms := qokit.AllToAllMaxCutTerms(16, 0.3)
//	sim, err := qokit.NewSimulator(16, terms, qokit.Options{})
//	if err != nil { ... }
//	res, err := sim.SimulateQAOA(gamma, beta)
//	if err != nil { ... }
//	energy := res.Expectation()
package qokit

import (
	"fmt"

	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/optimize"
	"qokit/internal/poly"
	"qokit/internal/statevec"
)

// Term is one weighted monomial of a cost polynomial on spins
// s_i ∈ {−1, +1} (Eq. 1 of the paper). An empty variable list is a
// constant offset.
type Term = poly.Term

// Terms is a cost polynomial: the sum of its terms.
type Terms = poly.Terms

// NewTerm builds a term from a weight and variable indices.
func NewTerm(w float64, vars ...int) Term { return poly.NewTerm(w, vars...) }

// NewTerms builds a polynomial from terms.
func NewTerms(terms ...Term) Terms { return poly.New(terms...) }

// StateVector is a dense 2^n vector of complex amplitudes; index bit i
// is qubit i.
type StateVector = statevec.Vec

// Options configures a Simulator (backend, mixer, worker count,
// initial state, precision); no option switches an optimization off.
// Which kernels a simulator runs follows from its Options and its cost
// diagonal alone: on the default SoA backend, in either precision, the
// x mixer always runs as the cache-tiled F = 2 kernel (RX⊗RX on qubit
// pairs, 2–3 cache-sized passes per layer) with the phase folded into
// its first pass; the Serial reference runs a phase pass, then
// Algorithm 2's per-qubit sweep, in complex128.
type Options = core.Options

// Simulator is a QAOA fast simulator bound to one problem instance;
// construct it once and reuse it for every parameter evaluation.
type Simulator = core.Simulator

// Result is an evolved QAOA state; use its output methods
// (Expectation, Overlap, StateVector, Probabilities).
type Result = core.Result

// Workspace is one worker's Evaluator over a shared Simulator
// (Simulator.NewWorkspace): it keeps the ψ state energies evolve in and
// the λ state adjoint gradients add, reusing both across calls, so warm
// evaluations allocate no state. It is not safe for concurrent use;
// serve one through NewService, or give each goroutine its own.
type Workspace = core.Workspace

// ErrObservableLength is wrapped by the error Result.ExpectationOf
// returns for a diagonal whose length is not 2^n.
var ErrObservableLength = core.ErrObservableLength

// Backend selects the execution engine.
type Backend = core.Backend

// Backends, in QOKit terms: Serial ≈ "python", the single-threaded
// complex128 reference; SoA ≈ "c" and "nbcuda", the pooled split-layout
// engine (the GPU analogue). Auto picks SoA.
const (
	BackendAuto   = core.BackendAuto
	BackendSerial = core.BackendSerial
	BackendSoA    = core.BackendSoA
)

// Mixer selects the QAOA mixing operator.
type Mixer = core.Mixer

// Mixers: the transverse-field mixer and the two Hamming-weight-
// preserving xy mixers of the paper's §III-B.
const (
	MixerX          = core.MixerX
	MixerXYRing     = core.MixerXYRing
	MixerXYComplete = core.MixerXYComplete
)

// MixerRoute names how the x mixer runs. Simulator.MixerRoute always
// reports RouteSweep, the per-qubit sweep; the type and its values
// remain only because the repository benchmark (perfbench) reads them.
type MixerRoute = core.MixerRoute

// Mixer routes. Only RouteSweep is ever reported.
const (
	RouteAuto  = core.RouteAuto
	RouteSweep = core.RouteSweep
	RouteFWHT  = core.RouteFWHT
)

// NewSimulator builds a simulator for an n-qubit problem from its cost
// polynomial, precomputing the cost diagonal (the paper's Fig. 1
// pipeline). This is the analogue of instantiating a QOKit simulator
// class with the terms argument.
func NewSimulator(n int, terms Terms, opts Options) (*Simulator, error) {
	return core.New(n, terms, opts)
}

// NewSimulatorFromDiagonal builds a simulator from a precomputed cost
// diagonal (QOKit's costs argument). Having no terms, it scans the
// diagonal once for its symmetry group; the simulator then keeps the
// entries at its stored indices, as uint16 codes on an exact grid or
// else as a shared prefix of diag, not a copy.
func NewSimulatorFromDiagonal(n int, diag []float64, opts Options) (*Simulator, error) {
	return core.NewFromDiagonal(n, diag, opts)
}

// ChooseSimulator mirrors qokit.fur.choose_simulator: it resolves a
// backend name ("auto", "serial"/"python", or "soa"/"c"/"nbcuda"/"gpu",
// with the former "parallel" as a further SoA alias) into a constructor
// with the transverse-field mixer.
func ChooseSimulator(name string) (func(n int, terms Terms) (*Simulator, error), error) {
	backend, err := core.ParseBackend(name)
	if err != nil {
		return nil, err
	}
	return func(n int, terms Terms) (*Simulator, error) {
		return core.New(n, terms, Options{Backend: backend})
	}, nil
}

// SweepGrid builds the p = 1 cartesian product of γ and β values as
// flat [γ, β] vectors in row-major order (β varies fastest) — the
// landscape-scan batch of the paper's Figs. 3–4, in the shape
// Service.EnergyBatch takes.
func SweepGrid(gammas, betas []float64) [][]float64 {
	return optimize.Grid(gammas, betas)
}

// ArgMinEnergies returns the index of the lowest energy, the shape
// Service.EnergyBatch returns. An empty (or nil) slice returns −1,
// never a panic — callers must check the sign before indexing, exactly
// like a not-found sentinel.
func ArgMinEnergies(energies []float64) int {
	return optimize.ArgMinEnergies(energies)
}

// PrecomputeDiagonal evaluates the cost diagonal for the given terms
// without building a simulator — useful for inspecting the spectrum or
// feeding NewSimulatorFromDiagonal. Finite weights whose sum overflows
// to ±Inf return an error wrapping ErrNonFiniteCost.
func PrecomputeDiagonal(n int, terms Terms) ([]float64, error) {
	if err := costvec.CheckQubits(n); err != nil {
		return nil, err
	}
	if err := terms.Validate(n); err != nil {
		return nil, err
	}
	diag := costvec.PrecomputePool(statevec.NewPool(0), poly.Compile(terms), n)
	if _, err := costvec.CheckDiagonal(diag); err != nil {
		return nil, fmt.Errorf("qokit: %w", err)
	}
	return diag, nil
}
