// Package shard is the one split-plane QAOA engine behind both
// simulators. The paper's single-node simulator (Algorithm 3) and its
// distributed one (§III-C, Algorithm 4) differ only in the step that
// brings the k global qubits local, so internal/core's SoA backend runs
// this engine as one rank (k = 0) on the simulator's kernel pool, and
// internal/distsim runs it as each of K = 2^k ranks on an inline pool,
// the rank goroutines being the host's parallelism. At k = 0 the engine
// calls no collective: the cross-rank sums of energies and gradients,
// the output stage's reductions and snapshots belong to the caller.
//
// A state holds one rank's ψ (and, from the first gradient, the bra λ)
// as split (re, im) planes of float64 or float32 (State). Per layer:
//   - the phase e^{−iγĈ} reads the rank's window of one stored cost form
//     (costvec.Stored): per-γ tables gathered by uint16 code when the
//     form holds codes, per-amplitude sincos of float64 entries
//     otherwise;
//   - the transverse-field mixer runs the tiled F = 2 layer on the local
//     qubits with the phase in its first pass, then at k > 0 one
//     all-to-all that transposes the rank bits with the top k local
//     bits, one tiled pass over the swapped-in qubits, and the
//     all-to-all back (MixerX);
//   - the xy mixers run a phase pass, then sweep their edges in the
//     given order: local edges run the split-plane edge kernel, an edge
//     touching a global qubit one partner exchange (xy.go).
//
// With the x mixer and the |+⟩ start the state keeps the cost's XOR
// symmetries, ψ(x ⊕ g) = ψ(x), so it is stored over a group of 2^h of
// them (Symmetry): only the 2^(n−h) indices whose top h bits are zero,
// 2^(n−h−k) per rank, with each top qubit applied as a pivot pass. The
// adjoint gradient (Medvidović & Carleo, arXiv:2009.01760) walks ψ and
// λ back through the joint reverse kernels (reverse.go), and the
// output stage reads each rank's View (outputs.go).
package shard

import (
	"fmt"
	"math/bits"
	"sync"

	"qokit/internal/cluster"
	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/graphs"
	"qokit/internal/statevec"
)

// Planes is one split-layout state: a rank's ψ or λ, or exchange
// buffer.
type Planes[T statevec.Float] struct{ Re, Im []T }

// newPlanes allocates zero planes of size amplitudes.
func newPlanes[T statevec.Float](size int) Planes[T] {
	return Planes[T]{Re: make([]T, size), Im: make([]T, size)}
}

// Config fixes an engine apart from its cost.
type Config struct {
	// N is the qubit count and Ranks = 2^k the number of shards.
	N, Ranks int
	// Pool runs every kernel of every shard.
	Pool *statevec.Pool
	// Sym is the group the state is stored over (SymmetryFor).
	Sym Symmetry
	// XY selects the xy mixers, which sweep Edges in order; false is
	// the transverse-field mixer.
	XY    bool
	Edges []graphs.Edge
	// HammingWeight is the weight of the xy mixers' Dicke start.
	HammingWeight int
	// Initial, when set, is the full 2^n initial state (a caller's);
	// nil starts from |+⟩ for the x mixer and the Dicke state for xy.
	Initial statevec.Vec
}

// Engine is what every shard of one problem reads and none writes: the
// configuration and one window of the stored cost form per rank. It is
// safe for concurrent use by any number of states.
type Engine struct {
	cfg  Config
	k    int
	size int
	form *costvec.Stored
	// levels is the phase-table length, 0 for float64 entries.
	levels int
	costs  []window
}

// window is one rank's run [offset, offset + size) of the stored cost
// form: sub-slices of its float64 entries and of its codes, whichever
// it holds, never a copy.
type window struct {
	offset uint64
	diag   []float64
	q      costvec.Quantized
	// order holds the local indices by ascending cost, built by the
	// first CVaR; once keeps that build safe across concurrent states.
	once  sync.Once
	order []int
}

// New builds an engine over a stored cost form of the same cost. A form
// over another symmetry group is read through its own group into the
// stored indices of cfg.Sym once (costvec.Stored.Over); a form over
// cfg.Sym's group, such as a registry entry's, is windowed in place.
func New(cfg Config, form *costvec.Stored) (*Engine, error) {
	if form.N != cfg.N {
		return nil, fmt.Errorf("shard: cost form over %d qubits, want %d", form.N, cfg.N)
	}
	if cfg.Ranks < 1 || bits.OnesCount(uint(cfg.Ranks)) != 1 {
		return nil, fmt.Errorf("shard: %d ranks, want a power of two", cfg.Ranks)
	}
	if cfg.Initial != nil && (len(cfg.Initial) != 1<<uint(cfg.N) || len(cfg.Sym.Pivots) > 0) {
		return nil, fmt.Errorf("shard: an initial state needs all 2^%d amplitudes of a full state", cfg.N)
	}
	k := bits.TrailingZeros(uint(cfg.Ranks))
	e := &Engine{cfg: cfg, k: k, size: 1 << uint(cfg.N-len(cfg.Sym.Pivots)-k), form: form.Over(cfg.Sym.Pivots)}
	if q := e.form.Codes; q != nil {
		e.levels = int(q.MaxCode()) + 1
	}
	e.costs = make([]window, cfg.Ranks)
	for r := range e.costs {
		w, lo, hi := &e.costs[r], r*e.size, (r+1)*e.size
		w.offset = uint64(lo)
		if q := e.form.Codes; q != nil {
			w.q = costvec.Quantized{Codes: q.Codes[lo:hi], Min: q.Min, Scale: q.Scale}
		}
		if e.form.Diag != nil {
			w.diag = e.form.Diag[lo:hi]
		}
	}
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() *Config { return &e.cfg }

// Form returns the stored cost form the ranks window, over Sym's group.
func (e *Engine) Form() *costvec.Stored { return e.form }

// Len returns the number of amplitudes each shard stores, 2^(n−h−k).
func (e *Engine) Len() int { return e.size }

// Weight is the number of basis states each stored amplitude stands
// for, the group's size 2^h: energies, norms and gradient reductions
// over the stored amplitudes scale by it, exactly.
func (e *Engine) Weight() float64 { return float64(len(e.cfg.Sym.Group)) }

// Phase returns rank's cost window as a phase source for γ: with codes
// and a table buffer it rebuilds the per-γ table in tab; a nil tab
// gives a source for the reductions alone (Min + Scale·code, the
// entries bit for bit).
func (e *Engine) Phase(rank int, gamma float64, tab []complex128) statevec.Phase {
	return e.costs[rank].phase(gamma, tab)
}

func (w *window) phase(gamma float64, tab []complex128) statevec.Phase {
	ph := statevec.Phase{Diag: w.diag, Gamma: gamma}
	if w.q.Codes != nil {
		ph.Codes, ph.Min, ph.Scale = w.q.Codes, w.q.Min, w.q.Scale
		if tab != nil {
			w.q.PhaseTableInto(tab, gamma)
			ph.Tab = tab
		}
	}
	return ph
}

// Ascending returns rank's local indices by ascending cost, ties by
// index, built once per engine and rank (costvec.Ascending).
func (e *Engine) Ascending(rank int) []int { return e.costs[rank].ascending() }

// value returns the cost of local index i.
func (w *window) value(i int) float64 {
	if w.diag != nil {
		return w.diag[i]
	}
	return w.q.Value(i)
}

// ascending returns the window's local indices by ascending cost, ties
// by index, sorting them on first use (costvec.Ascending).
func (w *window) ascending() []int {
	w.once.Do(func() {
		var q *costvec.Quantized
		if w.q.Codes != nil {
			q = &w.q
		}
		w.order = costvec.Ascending(w.diag, q)
	})
	return w.order
}

// Shard is one rank's evolving state in either plane precision
// (*State[float64] or *State[float32]).
type Shard interface {
	// Bind rebinds the state to rank of engine e, keeping its
	// amplitudes: e must store as many amplitudes per shard as the
	// state holds.
	Bind(e *Engine, rank int) error
	// Reset sets ψ to the rank's slice of the initial state.
	Reset()
	// Layer applies e^{−iβM}·e^{−iγĈ} to ψ.
	Layer(c *cluster.Comm, gamma, beta float64) error
	// Expectation returns this rank's share of ⟨ψ|Ĉ|ψ⟩.
	Expectation() float64
	// ExpectationOf returns this rank's share of ⟨ψ|obs|ψ⟩ for a
	// diagonal observable over all 2^n basis states.
	ExpectationOf(obs []float64) float64
	// Adjoint runs the adjoint gradient of ⟨obs⟩ (the cost for a nil
	// obs) on the evolved ψ, writing this rank's shares of ∂/∂γ_ℓ and
	// ∂/∂β_ℓ into gradGamma and gradBeta.
	Adjoint(c *cluster.Comm, gamma, beta, obs, gradGamma, gradBeta []float64) error
	// View is the output stage's view of ψ.
	View() evaluator.View
	// Vec returns the stored amplitudes as a complex128 vector.
	Vec() statevec.Vec
	// Probabilities returns |ψ_x|² over every basis state of a
	// single-rank state (see State.Probabilities).
	Probabilities(dst []float64, preserveState bool) []float64
	// NormSquared returns this rank's share of ‖ψ‖², over the stored
	// amplitudes only.
	NormSquared() float64
	// Load sets stored amplitude i from at(offset + i), and Store calls
	// put(offset + i, ·) with it: offset + i is its stored index.
	Load(at func(x uint64) (re, im float64))
	Store(put func(x uint64, re, im float64))
}

// NewShard allocates rank's state of engine e in float32 planes when
// single is set, else float64.
func NewShard(e *Engine, rank int, single bool) Shard {
	if single {
		return newState[float32](e, rank)
	}
	return newState[float64](e, rank)
}

// State is one rank's workspace: the ket ψ, the bra λ (allocated by the
// first gradient), the xy partner-exchange buffers (at k > 0) and the
// per-γ phase table. A State is not safe for concurrent use.
type State[T statevec.Float] struct {
	e    *Engine
	rank int
	cost *window

	psi, lam         Planes[T]
	recvPsi, recvLam Planes[T]
	send             Planes[T]
	tab              []complex128
}

// newState allocates rank's state of engine e.
func newState[T statevec.Float](e *Engine, rank int) *State[T] {
	s := &State[T]{psi: newPlanes[T](e.size)}
	s.Bind(e, rank)
	return s
}

// Bind rebinds s to rank of engine e (see Shard).
func (s *State[T]) Bind(e *Engine, rank int) error {
	if len(s.psi.Re) != e.size {
		return fmt.Errorf("shard: a state of %d amplitudes does not fit shards of %d", len(s.psi.Re), e.size)
	}
	s.e, s.rank, s.cost = e, rank, &e.costs[rank]
	if cap(s.tab) < e.levels {
		s.tab = make([]complex128, e.levels)
	}
	s.tab = s.tab[:e.levels]
	if e.cfg.XY && e.k > 0 && s.recvPsi.Re == nil {
		s.recvPsi, s.send = newPlanes[T](e.size), newPlanes[T](e.size/2)
	}
	return nil
}

// Layer applies one QAOA layer to ψ (see Shard).
func (s *State[T]) Layer(c *cluster.Comm, gamma, beta float64) error {
	e := s.e
	ph := e.Phase(s.rank, gamma, s.tab)
	if e.cfg.XY {
		statevec.ApplyPhasePlanes(e.cfg.Pool, s.psi.Re, s.psi.Im, ph)
		return s.mixerXY(c, beta)
	}
	return MixerX(c, e.cfg.Pool, s.psi, ph, e.k, beta, &e.cfg.Sym)
}

// MixerX is Algorithm 4's transverse-field layer on one rank's planes:
// the tiled F = 2 layer on the local qubits (with ph in its first pass
// when ph has a cost source), then at k > 0 the all-to-all that swaps
// the k global qubits in at the top k local positions, one tiled pass
// over them, and the all-to-all back. On a group state the pivot
// passes run the top qubits, while the planes are transposed at k > 0.
func MixerX[T statevec.Float](c *cluster.Comm, pool *statevec.Pool, s Planes[T], ph statevec.Phase, k int, beta float64, sym *Symmetry) error {
	statevec.UniformRXPlanes(pool, s.Re, s.Im, ph, beta)
	if k == 0 {
		mirrorRX(pool, s, sym, beta)
		return nil
	}
	if err := transpose(c, sym, s); err != nil {
		return err
	}
	localN := bits.TrailingZeros(uint(len(s.Re)))
	statevec.UniformRXRangePlanes(pool, s.Re, s.Im, localN-k, localN, beta)
	mirrorRX(pool, s, sym, beta)
	return transposeBack(c, sym, s)
}

// Expectation returns this rank's share of ⟨ψ|Ĉ|ψ⟩, scaled by 2^h.
func (s *State[T]) Expectation() float64 {
	return s.e.Weight() * statevec.ExpectationPlanes(s.e.cfg.Pool, s.psi.Re, s.psi.Im, s.e.Phase(s.rank, 0, nil))
}
