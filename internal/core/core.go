// Package core implements the paper's primary contribution: the fast
// QAOA simulator family (Algorithm 3). A simulator is constructed once
// per problem — precomputing and caching the cost diagonal — and then
// evaluates QAOA circuits |γ,β⟩ = Π_l e^{−iβ_l M} e^{−iγ_l Ĉ} |s⟩ for
// arbitrarily many parameter sets, which is exactly the access pattern
// of QAOA parameter optimization. Per layer it performs one
// elementwise diagonal multiply (phase operator) and one mixer sweep
// (Algorithm 2 or the xy SU(4) analogues); the objective
// ⟨γ,β|Ĉ|γ,β⟩ is a single inner product against the cached diagonal.
//
// Two single-node backends stand in for QOKit's simulator classes:
//
//	Serial — portable straight-line complex128 loops ("python"): a
//	         phase pass, then Algorithm 2's per-qubit sweep; the
//	         reference the fast path is tested against
//	SoA    — split real/imag planes on a worker pool ("c", "nbcuda"/GPU
//	         analogue): the phase folded into the cache-tiled F = 2
//	         mixer, in float64 or float32 planes
//
// SoA is the one split-plane engine of internal/shard run as a single
// rank (k = 0) on the simulator's pool: the same engine each rank of
// the distributed simulator (internal/distsim, §III-C) runs, which adds
// only the all-to-all that brings its global qubits local. Both take
// the group a state is stored over from one rule (shard.SymmetryFor)
// and read one stored cost form (costvec.Stored), here whole. Both
// serve their measurement-style outputs (overlap, CVaR, variance, the
// most probable state, probability queries, shots) through one output
// stage, internal/evaluator's Stage; a simulator runs it over its
// stored amplitudes as a single rank.
package core

import (
	"fmt"
	"slices"
	"sync"

	"qokit/internal/costvec"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/shard"
	"qokit/internal/statevec"
)

// Backend selects the execution engine.
type Backend int

const (
	// BackendAuto picks the fastest single-node backend (SoA).
	BackendAuto Backend = iota
	// BackendSerial is the portable single-threaded complex128
	// reference engine.
	BackendSerial
	// BackendSoA runs split real/imaginary kernels on a worker pool.
	BackendSoA
)

// String returns the canonical backend name.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendSerial:
		return "serial"
	case BackendSoA:
		return "soa"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend resolves a backend name, accepting both this package's
// names and the corresponding QOKit simulator-class names. QOKit's
// pooled "c" class (and this package's former "parallel" name) maps to
// SoA, the one pooled engine.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "auto":
		return BackendAuto, nil
	case "serial", "python":
		return BackendSerial, nil
	case "soa", "nbcuda", "gpu", "parallel", "c":
		return BackendSoA, nil
	default:
		return 0, fmt.Errorf("core: unknown backend %q (want auto, serial/python, or soa/parallel/c/nbcuda/gpu)", name)
	}
}

// Mixer selects the QAOA mixing operator.
type Mixer int

const (
	// MixerX is the transverse-field mixer e^{−iβΣX_i} (Algorithm 2).
	MixerX Mixer = iota
	// MixerXYRing applies one Trotter step of the Hamming-weight-
	// preserving xy mixer on ring edges (even pass then odd pass).
	MixerXYRing
	// MixerXYComplete applies one Trotter step of the xy mixer over
	// all qubit pairs in lexicographic order.
	MixerXYComplete
)

// String returns the canonical mixer name.
func (m Mixer) String() string {
	switch m {
	case MixerX:
		return "x"
	case MixerXYRing:
		return "xy-ring"
	case MixerXYComplete:
		return "xy-complete"
	default:
		return fmt.Sprintf("Mixer(%d)", int(m))
	}
}

// MixerRoute names how the transverse-field mixer runs. Every
// simulator runs a sweep (Algorithm 2's per-qubit passes, or the split
// layouts' tiled F = 2 kernel), so Simulator.MixerRoute always reports
// RouteSweep; the type and its three values remain only because the
// repository benchmark (perfbench) prints and compares them.
type MixerRoute int

const (
	// RouteAuto is the zero value; no simulator reports it.
	RouteAuto MixerRoute = iota
	// RouteSweep is the per-qubit or tiled F = 2 sweep.
	RouteSweep
	// RouteFWHT names a Walsh–Hadamard mixer route this package does
	// not implement; no simulator reports it.
	RouteFWHT
)

// String returns the canonical route name.
func (r MixerRoute) String() string {
	switch r {
	case RouteAuto:
		return "auto"
	case RouteSweep:
		return "sweep"
	case RouteFWHT:
		return "fwht"
	default:
		return fmt.Sprintf("MixerRoute(%d)", int(r))
	}
}

// Options configures a Simulator. The zero value requests the auto
// backend (SoA), the transverse-field mixer, a GOMAXPROCS-sized pool
// and float64 planes. The options and the cost alone fix which
// kernels a simulator runs: nothing is calibrated against the clock,
// and no option switches an optimization off. With the x mixer, SoA
// folds the phase into the cache-tiled F = 2 mixer (§VI's gate fusion,
// RX⊗RX on qubit pairs) in either precision, and Serial runs a phase
// pass, then Algorithm 2's per-qubit sweep. Likewise no option selects
// the group state (see Simulator): it follows from the backend, the
// mixer, InitialState and the cost, and setting InitialState, even
// to the uniform state, keeps the full state.
type Options struct {
	Backend Backend
	Mixer   Mixer
	// Workers sets the SoA pool size (≤ 0 means GOMAXPROCS). The
	// Serial backend always runs single-threaded: any Workers value is
	// normalized to 1 at construction (observable through
	// Simulator.Workers), never silently retained.
	Workers int
	// InitialState overrides the default initial state (uniform
	// superposition for MixerX, a Dicke state for the xy mixers). The
	// vector is copied; it must have length 2^n.
	InitialState statevec.Vec
	// HammingWeight is the Dicke-state weight for xy mixers; ≤ 0
	// defaults to n/2. Ignored for MixerX.
	HammingWeight int
	// SinglePrecision stores the state as float32 pairs (8 bytes per
	// amplitude instead of 16), the complex64 mode of the paper's §V
	// baselines: one more qubit fits in the same memory, at the cost
	// of accumulating rounding error with depth (measured by
	// `qaoabench precision`). Requires the SoA (or Auto) backend.
	SinglePrecision bool
}

// Simulator is a QAOA fast simulator bound to one problem instance
// (one precomputed cost diagonal, held in its stored form). After
// construction it is read-only, so one Simulator may serve many
// goroutines at once as long as each evolves its own Result (NewResult
// + SimulateQAOAInto) or Workspace — the sharing pattern the evaluation
// service is built on. The cost data is shared by every evaluation,
// never copied.
//
// When the cost is invariant under XOR masks — C(x ⊕ g) == C(x) for
// every x and every g of a group H, as the complement is for LABS,
// MaxCut and SK (terms of even degree) and the alternating flip is for
// LABS — and the simulator runs SoA (in either precision) with the x
// mixer and the default |+⟩ start, every state it evolves keeps
// ψ(x ⊕ g) = ψ(x), and so does the adjoint's bra. h ≤ n−1 elements of H
// that carry the top h bits one each (costvec.TermPivots from the
// terms, costvec.SymmetryPivots from a caller's diagonal) fix how the
// simulator stores ψ and λ: over the 2^(n−h) indices whose top h bits
// are zero only, 2^−h of the memory and of the traffic of every pass.
// MaxCut and SK take h = 1, the half state; LABS takes h = 2, a quarter
// state, two qubits where §V-B's float32 gains one. The stored values
// are the full state's amplitudes: StateVector and Probabilities expand
// them to all 2^n basis states through x ↦ x ⊕ g, g the element that
// carries x's top bits; Overlap, CVaR, Variance and EvalOutputs read
// them where they are (each stands for its 2^h basis states), and Caps
// reports the stored state. Serial, the xy mixers, costs whose
// symmetries carry no top bit (h = 0) and any caller-supplied
// InitialState keep the full state.
//
// The cost is held over the same indices (costvec.Stored): only the
// 2^(n−h) stored entries are precomputed and kept. When they are
// exactly an affine grid Min + Scale·k with at most
// 2^n/costvec.PhaseTableRatio points (LABS, unweighted MaxCut, any
// integer cost of modest range), the simulator keeps their uint16
// level codes alone: each phase application gathers e^{−iγ·level} from
// a per-γ table instead of calling sincos per amplitude, and every
// reduction reads Min + Scale·code, which equals the float64 entry bit
// for bit, so states and outputs are bit-identical to a float64
// diagonal's. Other costs (SK, portfolio) keep float64 entries and
// per-amplitude sincos. Serial also keeps all 2^n float64 entries,
// which its complex128 reductions read.
type Simulator struct {
	n       int
	opts    Options
	backend Backend
	// eng is the split-plane engine the simulator runs as one rank: its
	// kernel pool, the group states are stored over, the stored cost
	// form and the mixer's edges.
	eng *shard.Engine
	// serial is the complex128 arm of BackendSerial (serial.go), nil on
	// SoA.
	serial *serialArm

	// minCost and groundStates are built on the first MinCost or
	// GroundStates call (groundOnce): the output stage finds its own
	// ground cost, so most simulators never need the argmin list.
	groundOnce   sync.Once
	minCost      float64
	groundStates []uint64
}

// New builds a simulator for an n-qubit problem given as polynomial
// terms (Eq. 1). The terms fix the symmetry group the state is stored
// over before any entry exists (costvec.TermPivots), so the paper's
// Fig. 1 "precompute diagonal" stage computes only the 2^(n−h) stored
// entries, on the pool opts select.
func New(n int, terms poly.Terms, opts Options) (*Simulator, error) {
	if err := costvec.CheckQubits(n); err != nil {
		return nil, err
	}
	if err := terms.Validate(n); err != nil {
		return nil, err
	}
	backend, workers, err := resolveBackend(opts)
	if err != nil {
		return nil, err
	}
	compiled := poly.Compile(terms)
	pivots, flip := costvec.TermPivots(n, compiled.Masks)
	sym := shard.SymmetryFor(pivots, flip, n, 0, groupState(backend, opts))
	cost, err := costvec.NewStored(statevec.NewPool(workers), compiled, n, sym.Pivots, flip)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return newSimulator(n, cost, opts)
}

// NewFromDiagonal builds a simulator from an existing cost diagonal
// (QOKit's `costs` constructor argument), which has no terms: one scan
// rejects NaN and ±Inf entries (an error wrapping poly.ErrNonFiniteCost)
// and a search of the diagonal finds its symmetry group
// (costvec.SymmetryPivots) before the stored entries are kept. A
// float64 form retains a sub-slice of diag, not a copy; callers must
// not mutate it afterwards.
func NewFromDiagonal(n int, diag []float64, opts Options) (*Simulator, error) {
	if err := costvec.CheckQubits(n); err != nil {
		return nil, err
	}
	if len(diag) != 1<<uint(n) {
		return nil, fmt.Errorf("core: diagonal length %d, want 2^%d = %d", len(diag), n, 1<<uint(n))
	}
	backend, _, err := resolveBackend(opts)
	if err != nil {
		return nil, err
	}
	flip, err := costvec.CheckDiagonal(diag)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var pivots []uint64
	if groupState(backend, opts) {
		pivots = costvec.SymmetryPivots(diag, flip)
	}
	return newSimulator(n, costvec.FromDiagonal(diag, pivots, flip), opts)
}

// resolveBackend checks opts' backend and precision and returns the
// backend and kernel-pool size a simulator runs. The serial backend
// never consults the pool, so its worker count is normalized to 1:
// Options cannot silently claim parallelism the engine does not
// deliver.
func resolveBackend(opts Options) (Backend, int, error) {
	backend := opts.Backend
	switch backend {
	case BackendAuto:
		backend = BackendSoA
	case BackendSerial, BackendSoA:
	default:
		return 0, 0, fmt.Errorf("core: unknown backend %v", opts.Backend)
	}
	if opts.SinglePrecision && backend != BackendSoA {
		return 0, 0, fmt.Errorf("core: SinglePrecision requires the SoA backend, got %v", backend)
	}
	if backend == BackendSerial {
		return backend, 1, nil
	}
	return backend, opts.Workers, nil
}

// groupState reports whether a simulator on backend with opts stores
// its states over the cost's symmetry group (see Simulator).
func groupState(backend Backend, opts Options) bool {
	return backend == BackendSoA && opts.Mixer == MixerX && opts.InitialState == nil
}

// newSimulator builds a simulator over a stored form of its cost, such
// as a registry entry's. The group its states are stored over follows
// from the backend, the mixer, InitialState and the form's pivots
// (shard.SymmetryFor at k = 0, which keeps any pivots a single rank is
// given); a form over another group is expanded once.
func newSimulator(n int, cost *costvec.Stored, opts Options) (*Simulator, error) {
	backend, workers, err := resolveBackend(opts)
	if err != nil {
		return nil, err
	}
	edges, err := MixerSweepEdges(n, opts.Mixer)
	if err != nil {
		return nil, err
	}
	s := &Simulator{n: n, opts: opts, backend: backend}
	cfg := shard.Config{
		N: n, Ranks: 1, Pool: statevec.NewPool(workers),
		Sym:   shard.SymmetryFor(cost.Pivots, cost.Flip, n, 0, groupState(backend, opts)),
		XY:    opts.Mixer != MixerX,
		Edges: edges, HammingWeight: s.hammingWeight(),
	}
	switch {
	case opts.InitialState != nil:
		if len(opts.InitialState) != 1<<uint(n) {
			return nil, fmt.Errorf("core: initial state length %d, want %d", len(opts.InitialState), 1<<uint(n))
		}
		cfg.Initial = opts.InitialState.Clone()
	case cfg.XY && cfg.HammingWeight > n:
		return nil, fmt.Errorf("core: Hamming weight %d exceeds n=%d", cfg.HammingWeight, n)
	}
	if s.eng, err = shard.New(cfg, cost); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if backend == BackendSerial {
		s.serial = newSerialArm(s)
	}
	return s, nil
}

// computeGroundStates records the minimal cost and its argmin set, once
// (groundOnce), from the stored entries: each stored index x stands for
// x ⊕ g for every g of the group, which share its cost. For xy mixers
// the search is restricted to the feasible (fixed Hamming weight)
// subspace, since the dynamics never leaves it.
func (s *Simulator) computeGroundStates() {
	const tol = 1e-9
	first := true
	cost := s.eng.Form()
	for x := 0; x < cost.Len(); x++ {
		if v := cost.Value(x); s.feasible(x) && (first || v < s.minCost) {
			s.minCost, first = v, false
		}
	}
	for x := 0; x < cost.Len(); x++ {
		if s.feasible(x) && cost.Value(x) <= s.minCost+tol {
			for _, g := range s.group() {
				s.groundStates = append(s.groundStates, uint64(x)^g)
			}
		}
	}
	slices.Sort(s.groundStates)
}

// NumQubits returns n.
func (s *Simulator) NumQubits() int { return s.n }

// Backend returns the resolved execution backend.
func (s *Simulator) Backend() Backend { return s.backend }

// Workers returns the resolved kernel-pool size: Options.Workers
// (GOMAXPROCS when ≤ 0) on SoA, always 1 on Serial.
func (s *Simulator) Workers() int { return s.eng.Config().Pool.Workers }

// MixerRoute reports the mixer route, which is always RouteSweep (see
// the MixerRoute type).
func (s *Simulator) MixerRoute() MixerRoute { return RouteSweep }

// CostDiagonal returns the full 2^n cost vector, QOKit's
// get_cost_diagonal: a fresh expansion of the stored entries through
// the group on every call (8·2^n bytes), equal bit for bit to the
// diagonal PrecomputeDiagonal returns. The simulator itself holds only
// the stored form.
func (s *Simulator) CostDiagonal() []float64 { return s.eng.Form().Expand() }

// MinCost returns the smallest cost over the (feasible) search space.
// The first MinCost or GroundStates call scans the stored entries.
func (s *Simulator) MinCost() float64 {
	s.groundOnce.Do(s.computeGroundStates)
	return s.minCost
}

// GroundStates returns the argmin set of the cost over the searched
// subspace (the feasible one for the xy mixers): the basis states whose
// probability Overlap sums. The first MinCost or GroundStates call
// builds it; later calls return the same slice.
func (s *Simulator) GroundStates() []uint64 {
	s.groundOnce.Do(s.computeGroundStates)
	return s.groundStates
}

// InitialState returns a copy of the initial state: the caller's
// InitialState, the Dicke start of the xy mixers, or for the x mixer's
// |+⟩ start a fresh uniform vector.
func (s *Simulator) InitialState() statevec.Vec {
	switch {
	case s.opts.InitialState != nil:
		return s.eng.Config().Initial.Clone()
	case s.opts.Mixer != MixerX:
		return statevec.NewDicke(s.n, s.hammingWeight())
	default:
		return statevec.NewUniform(s.n)
	}
}

// ringSweep orders the ring edges even-first then odd (one Trotter
// step of the xy-ring mixer; each pass contains disjoint pairs).
func ringSweep(n int) []graphs.Edge {
	if n < 2 {
		return nil
	}
	if n == 2 {
		return []graphs.Edge{{U: 0, V: 1}}
	}
	var out []graphs.Edge
	for i := 0; i < n-1; i += 2 {
		out = append(out, graphs.Edge{U: i, V: i + 1})
	}
	for i := 1; i < n-1; i += 2 {
		out = append(out, graphs.Edge{U: i, V: i + 1})
	}
	// The wrap-around edge closes the ring; for even n it belongs to
	// the odd pass, for odd n it shares vertices with both passes and
	// forms its own third pass.
	out = append(out, graphs.Edge{U: 0, V: n - 1})
	return out
}

// MixerSweepEdges returns the ordered edge list one Trotter step of
// mixer m sweeps over n qubits (nil for MixerX, which has no edges).
// The xy factors on edges sharing a qubit do not commute, so any
// engine claiming bit-compatibility with this package — in particular
// the distributed simulator — must apply them in exactly this order.
func MixerSweepEdges(n int, m Mixer) ([]graphs.Edge, error) {
	switch m {
	case MixerX:
		return nil, nil
	case MixerXYRing:
		return ringSweep(n), nil
	case MixerXYComplete:
		return completeSweep(n), nil
	default:
		return nil, fmt.Errorf("core: unknown mixer %v", m)
	}
}

// completeSweep orders all pairs lexicographically (one Trotter step
// of the xy-complete mixer).
func completeSweep(n int) []graphs.Edge {
	var out []graphs.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, graphs.Edge{U: i, V: j})
		}
	}
	return out
}
