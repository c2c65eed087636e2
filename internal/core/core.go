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
// Three single-node backends mirror QOKit's simulator classes:
//
//	Serial    — portable straight-line complex128 loops ("python")
//	Parallel  — worker-pool complex128 kernels ("c"/OpenMP analogue)
//	SoA       — worker-pool split real/imag kernels ("nbcuda"/GPU
//	            analogue; see internal/statevec for why SoA stands in
//	            for the vendor-tuned kernels)
//
// The distributed backends of §III-C live in internal/distsim and
// share this package's Mixer and options types.
package core

import (
	"fmt"
	"math/bits"

	"qokit/internal/costvec"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/statevec"
)

// Backend selects the execution engine.
type Backend int

const (
	// BackendAuto picks the fastest single-node backend (SoA).
	BackendAuto Backend = iota
	// BackendSerial is the portable reference engine.
	BackendSerial
	// BackendParallel runs complex128 kernels on a worker pool.
	BackendParallel
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
	case BackendParallel:
		return "parallel"
	case BackendSoA:
		return "soa"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend resolves a backend name, accepting both this package's
// names and the corresponding QOKit simulator-class names.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "auto":
		return BackendAuto, nil
	case "serial", "python":
		return BackendSerial, nil
	case "parallel", "c":
		return BackendParallel, nil
	case "soa", "nbcuda", "gpu":
		return BackendSoA, nil
	default:
		return 0, fmt.Errorf("core: unknown backend %q (want auto, serial/python, parallel/c, soa/nbcuda)", name)
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
// backend, the transverse-field mixer, a GOMAXPROCS-sized pool and a
// float64 diagonal. The options and the diagonal alone fix which
// kernels a simulator runs: nothing is calibrated against the clock.
// The transverse-field mixer runs as Algorithm 2's per-qubit sweep on
// the complex128 backends (Serial, Parallel) and as the cache-tiled
// F = 2 kernel (§VI's gate fusion, RX⊗RX on qubit pairs) on SoA in
// either precision; no option selects between them. Likewise no
// option selects the group state (see Simulator): it follows from the
// backend, the mixer, InitialState and the diagonal, and setting
// InitialState, even to the uniform state, keeps the full state.
type Options struct {
	Backend Backend
	Mixer   Mixer
	// Workers sets the pool size for the Parallel and SoA backends
	// (≤ 0 means GOMAXPROCS). The Serial backend always runs
	// single-threaded: any Workers value is normalized to 1 at
	// construction (observable through Simulator.Workers), never
	// silently retained.
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
	// SeparatePhase forces the phase operator to run as its own full
	// pass over the state instead of being folded into the first mixer
	// sweep of each layer. The fused layer is the default because it is
	// bit-identical and one traversal cheaper; this ablation isolates
	// what the fusion buys, mirroring RecomputePhase's role for the
	// diagonal precompute.
	SeparatePhase bool
	// RecomputePhase disables the paper's central optimization: the
	// phase operator re-evaluates the cost polynomial term-by-term on
	// every layer (O(|T|·2^n) per layer) instead of reading the cached
	// diagonal. This is the ablation baseline standing in for
	// OpenQAOA-style simulators in Fig. 2 and isolates exactly what
	// precomputation buys. A simulator built from a raw diagonal
	// (NewFromDiagonal) has no terms to re-evaluate, so it re-reads the
	// diagonal instead: it still pays sincos per amplitude per layer,
	// but not the polynomial evaluation.
	RecomputePhase bool
}

// Simulator is a QAOA fast simulator bound to one problem instance
// (one precomputed cost diagonal). After construction it is read-only,
// so one Simulator may serve many goroutines at once as long as each
// evolves its own Result (NewResult + SimulateQAOAInto) or Workspace —
// the sharing pattern the evaluation service is built on. The precomputed
// diagonal is shared by every evaluation, never copied.
//
// When the diagonal is exactly an affine grid Min + Scale·k with at
// most 2^n/PhaseTableRatio points (LABS, unweighted MaxCut, any integer
// cost of modest range), the simulator also keeps its uint16 level
// codes, and each phase application gathers e^{−iγ·level} from a
// per-γ table instead of calling sincos per amplitude. The table
// entries are the sincos of the same float64 values the diagonal
// holds, so states are bit-identical either way; other diagonals (SK,
// portfolio) keep per-amplitude sincos.
//
// When the cost diagonal is invariant under XOR masks — diag[x ⊕ g] ==
// diag[x] bitwise for every x and every g of a group H, as the
// complement is for LABS, MaxCut and SK (terms of even degree) and the
// alternating flip is for LABS — and the simulator runs SoA (in either
// precision) with the x mixer and the default |+⟩ start, every state
// it evolves keeps ψ(x ⊕ g) = ψ(x), and so does the adjoint's bra.
// costvec.SymmetryPivots picks h ≤ n−1 elements of H that carry the
// top h bits one each, and the simulator stores ψ and λ over the
// 2^(n−h) indices whose top h bits are zero only: 2^−h of the memory
// and of the traffic of every pass. MaxCut and SK take h = 1, the half
// state; LABS takes h = 2, a quarter state, two qubits where §V-B's
// float32 gains one. The stored values are the full state's amplitudes;
// outputs (StateVector, Probabilities, Overlap, CVaR, Variance,
// samples) expand them to all 2^n basis states through x ↦ x ⊕ g, g
// the element that carries x's top bits, and Caps still reports the
// full state as an upper bound. Serial, Parallel, the xy mixers, costs
// whose symmetries carry no top bit (h = 0) and any caller-supplied
// InitialState keep the full state.
type Simulator struct {
	n       int
	opts    Options
	backend Backend
	pool    *statevec.Pool
	// group holds the 2^h symmetry-group elements a state is stored
	// over, indexed by their top h bits (half.go); {0} stores the full
	// state.
	group []uint64

	diag []float64
	// levels holds the level codes the phase tables are indexed by (an
	// exact grid found at construction); nil selects per-amplitude
	// sincos. nlevels is the table length.
	levels  *costvec.Quantized
	nlevels int
	// compiled is retained for the RecomputePhase ablation.
	compiled poly.Compiled

	// mixerPairs is the ordered edge list swept by the xy mixers.
	mixerPairs []graphs.Edge

	minCost      float64
	groundStates []uint64
	// costCache holds the lazily-built ascending-cost order of the
	// stored indices for CVaR.
	costCache costOrderCache

	initial statevec.Vec
}

// New builds a simulator for an n-qubit problem given as polynomial
// terms (Eq. 1), precomputing the 2^n cost diagonal with the engine
// selected by opts (the paper's Fig. 1 "precompute diagonal" stage).
func New(n int, terms poly.Terms, opts Options) (*Simulator, error) {
	if err := terms.Validate(n); err != nil {
		return nil, err
	}
	if n < 1 || n > 34 {
		return nil, fmt.Errorf("core: n=%d outside practical range [1,34]", n)
	}
	compiled := poly.Compile(terms)
	pool := statevec.NewPool(opts.Workers)
	var diag []float64
	if opts.Backend == BackendSerial {
		diag = costvec.Precompute(compiled, n)
	} else {
		diag = costvec.PrecomputePool(pool, compiled, n)
	}
	s, err := NewFromDiagonal(n, diag, opts)
	if err != nil {
		return nil, err
	}
	s.compiled = compiled
	return s, nil
}

// NewFromDiagonal builds a simulator from an existing cost diagonal
// (QOKit's `costs` constructor argument). The diagonal is retained,
// not copied; callers must not mutate it afterwards. A NaN or ±Inf
// entry returns an error wrapping poly.ErrNonFiniteCost.
func NewFromDiagonal(n int, diag []float64, opts Options) (*Simulator, error) {
	if n < 1 || n > 34 {
		return nil, fmt.Errorf("core: n=%d outside practical range [1,34]", n)
	}
	if len(diag) != 1<<uint(n) {
		return nil, fmt.Errorf("core: diagonal length %d, want 2^%d = %d", len(diag), n, 1<<uint(n))
	}
	backend := opts.Backend
	switch backend {
	case BackendAuto:
		backend = BackendSoA
	case BackendSerial, BackendParallel, BackendSoA:
	default:
		return nil, fmt.Errorf("core: unknown backend %v", opts.Backend)
	}
	workers := opts.Workers
	if backend == BackendSerial {
		// The serial backend never consults the pool; normalize the
		// worker count to 1 so Options cannot silently claim parallelism
		// the engine does not deliver.
		workers = 1
	}
	s := &Simulator{
		n:       n,
		opts:    opts,
		backend: backend,
		pool:    statevec.NewPool(workers),
		diag:    diag,
	}
	if opts.SinglePrecision && backend != BackendSoA {
		return nil, fmt.Errorf("core: SinglePrecision requires the SoA backend, got %v", backend)
	}
	if opts.SinglePrecision && opts.RecomputePhase {
		return nil, fmt.Errorf("core: SinglePrecision does not compose with RecomputePhase")
	}
	flip, err := costvec.CheckDiagonal(diag)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var pivots []uint64
	if backend == BackendSoA && opts.Mixer == MixerX && opts.InitialState == nil {
		pivots = costvec.SymmetryPivots(diag, flip)
	}
	s.group = groupOf(pivots)
	// The Fig. 2 ablation must keep re-deriving f(x) per phase
	// application, so it never takes tables. A group state's codes
	// cover the stored indices only, which hold every level.
	if !opts.RecomputePhase {
		if q, err := costvec.QuantizeExact(diag[:s.stored()], len(diag)/PhaseTableRatio); err == nil {
			s.levels = q
			s.nlevels = int(q.MaxCode()) + 1
		}
	}
	switch opts.Mixer {
	case MixerX:
	case MixerXYRing:
		s.mixerPairs = ringSweep(n)
	case MixerXYComplete:
		s.mixerPairs = completeSweep(n)
	default:
		return nil, fmt.Errorf("core: unknown mixer %v", opts.Mixer)
	}
	if err := s.setupInitialState(); err != nil {
		return nil, err
	}
	s.computeGroundStates()
	return s, nil
}

// PhaseTableRatio bounds the grids that take phase tables to 2^n/16
// points, so one per-γ table build costs at most 1/16 of the 2^n
// sincos calls it replaces. The distributed engine applies the same
// bound to each rank's slice.
const PhaseTableRatio = 16

// setupInitialState resolves the initial state: a caller-provided
// vector, |+⟩^n for the x mixer, or a Dicke state for xy mixers.
func (s *Simulator) setupInitialState() error {
	if s.opts.InitialState != nil {
		if len(s.opts.InitialState) != 1<<uint(s.n) {
			return fmt.Errorf("core: initial state length %d, want %d", len(s.opts.InitialState), 1<<uint(s.n))
		}
		s.initial = s.opts.InitialState.Clone()
		return nil
	}
	if s.opts.Mixer == MixerX {
		s.initial = statevec.NewUniform(s.n)
		return nil
	}
	k := s.opts.HammingWeight
	if k <= 0 {
		k = s.n / 2
	}
	if k > s.n {
		return fmt.Errorf("core: Hamming weight %d exceeds n=%d", k, s.n)
	}
	s.initial = statevec.NewDicke(s.n, k)
	return nil
}

// computeGroundStates records the minimal cost and its argmin set. For
// xy mixers the search is restricted to the feasible (fixed Hamming
// weight) subspace, since the dynamics never leaves it.
func (s *Simulator) computeGroundStates() {
	const tol = 1e-9
	restrict := s.opts.Mixer != MixerX && s.opts.InitialState == nil
	k := s.opts.HammingWeight
	if k <= 0 {
		k = s.n / 2
	}
	first := true
	for x, v := range s.diag {
		if restrict && bits.OnesCount(uint(x)) != k {
			continue
		}
		if first || v < s.minCost {
			s.minCost, first = v, false
		}
	}
	for x, v := range s.diag {
		if restrict && bits.OnesCount(uint(x)) != k {
			continue
		}
		if v <= s.minCost+tol {
			s.groundStates = append(s.groundStates, uint64(x))
		}
	}
}

// NumQubits returns n.
func (s *Simulator) NumQubits() int { return s.n }

// Backend returns the resolved execution backend.
func (s *Simulator) Backend() Backend { return s.backend }

// Workers returns the resolved kernel-pool size: Options.Workers
// (GOMAXPROCS when ≤ 0) for the pooled backends, always 1 for the
// Serial backend.
func (s *Simulator) Workers() int { return s.pool.Workers }

// MixerRoute reports the mixer route, which is always RouteSweep (see
// the MixerRoute type).
func (s *Simulator) MixerRoute() MixerRoute { return RouteSweep }

// CostDiagonal returns the precomputed cost vector (shared storage —
// do not mutate). This is QOKit's get_cost_diagonal.
func (s *Simulator) CostDiagonal() []float64 { return s.diag }

// MinCost returns the smallest cost over the (feasible) search space.
func (s *Simulator) MinCost() float64 { return s.minCost }

// GroundStates returns the argmin set used by Overlap.
func (s *Simulator) GroundStates() []uint64 { return s.groundStates }

// InitialState returns a copy of the initial state.
func (s *Simulator) InitialState() statevec.Vec { return s.initial.Clone() }

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
