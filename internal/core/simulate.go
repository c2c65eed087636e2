package core

import (
	"errors"
	"fmt"
	"math"

	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/poly"
	"qokit/internal/statevec"
)

// Result is the evolved QAOA state together with the simulator that
// produced it. Mirroring QOKit, the underlying representation depends
// on the backend (complex128 vector or SoA pair) and, for symmetric
// costs on SoA, holds only the 2^(n−h) indices whose top h bits are
// zero (see Simulator); portable consumers should use the output methods
// (Expectation, Overlap, StateVector, Probabilities), which always
// speak of all 2^n basis states, rather than reach into the
// representation.
type Result struct {
	sim   *Simulator
	vec   statevec.Vec    // non-nil for the Serial backend
	soa   *statevec.SoA   // non-nil for the SoA backend
	soa32 *statevec.SoA32 // non-nil for the SoA backend in single precision
	// tab is the per-γ phase-table scratch of simulators with level
	// codes; it lives here so concurrent evaluations on one Simulator
	// never share it.
	tab []complex128
}

// SimulateQAOA runs Algorithm 3: it initializes the state, then for
// each layer l applies the phase operator e^{−iγ_l Ĉ} from the cached
// diagonal followed by the mixer e^{−iβ_l M}. gamma and beta must have
// equal length p ≥ 0; p = 0 returns the initial state.
//
// Each call allocates a fresh state buffer. Batch workloads (parameter
// sweeps, optimizer loops) should allocate one Result per worker with
// NewResult and evolve into it repeatedly with SimulateQAOAInto.
func (s *Simulator) SimulateQAOA(gamma, beta []float64) (*Result, error) {
	r := s.NewResult()
	if err := s.SimulateQAOAInto(r, gamma, beta); err != nil {
		return nil, err
	}
	return r, nil
}

// NewResult allocates a state buffer sized for this simulator's
// backend (2^(n−h) amplitudes on a group state), for reuse across many
// SimulateQAOAInto calls. The buffer holds no meaningful state until
// the first evolution.
func (s *Simulator) NewResult() *Result {
	r := &Result{sim: s, tab: make([]complex128, s.nlevels)}
	switch {
	case s.backend == BackendSoA && s.opts.SinglePrecision:
		r.soa32 = statevec.NewSoA32(s.storedQubits())
	case s.backend == BackendSoA:
		r.soa = statevec.NewSoA(s.storedQubits())
	default:
		r.vec = statevec.New(s.n)
	}
	return r
}

// SimulateQAOAInto is SimulateQAOA evolving into caller-owned storage:
// it resets r to the initial state and applies the p layers in place;
// the serial backend allocates nothing, and SoA only its kernel
// launches. r must come from
// NewResult (or a prior SimulateQAOA) on a simulator with the same
// backend and qubit count; its previous contents are overwritten.
//
// Distinct Results may be evolved concurrently against one shared
// Simulator — the simulator is read-only during evolution — which is
// what workspaces on separate service workers do.
func (s *Simulator) SimulateQAOAInto(r *Result, gamma, beta []float64) error {
	if len(gamma) != len(beta) {
		return fmt.Errorf("core: len(gamma)=%d != len(beta)=%d", len(gamma), len(beta))
	}
	if err := evaluator.CheckAngles(gamma, beta); err != nil {
		return err
	}
	if err := s.resetResult(r); err != nil {
		return err
	}
	for l := range gamma {
		s.applyLayer(r, gamma[l], beta[l])
	}
	return nil
}

// resetResult rebinds r to this simulator and overwrites its storage
// with the initial state, without allocating. The |+⟩ start writes its
// one amplitude 1/√2^n (imaginary part 0) into every stored entry.
func (s *Simulator) resetResult(r *Result) error {
	if err := s.bindResult(r); err != nil {
		return err
	}
	if s.initial == nil {
		amp := 1 / math.Sqrt(float64(uint64(1)<<uint(s.n)))
		switch {
		case r.soa32 != nil:
			fillPlanes(r.soa32.Re, r.soa32.Im, float32(amp))
		case r.soa != nil:
			fillPlanes(r.soa.Re, r.soa.Im, amp)
		default:
			for i := range r.vec {
				r.vec[i] = complex(amp, 0)
			}
		}
		return nil
	}
	switch {
	case r.soa32 != nil:
		r.soa32.SetFromVec(s.initial[:s.stored()])
	case r.soa != nil:
		r.soa.SetFromVec(s.initial[:s.stored()])
	default:
		copy(r.vec, s.initial)
	}
	return nil
}

// fillPlanes sets every amplitude of split planes to the real value amp.
func fillPlanes[T ~float32 | ~float64](re, im []T, amp T) {
	for i := range re {
		re[i], im[i] = amp, 0
	}
}

// bindResult checks that r's storage matches this simulator's backend
// and qubit count and rebinds it, leaving the amplitudes untouched —
// the shared validation step of resetResult and the adjoint reverse
// pass (which rebinds the λ buffer without resetting it).
func (s *Simulator) bindResult(r *Result) error {
	if r == nil {
		return fmt.Errorf("core: nil Result; use NewResult")
	}
	size := s.stored()
	switch {
	case s.backend == BackendSoA && s.opts.SinglePrecision:
		if r.soa32 == nil || r.soa32.Len() != size {
			return fmt.Errorf("core: Result buffer does not match the soa32 backend at n=%d", s.n)
		}
	case s.backend == BackendSoA:
		if r.soa == nil || r.soa.Len() != size {
			return fmt.Errorf("core: Result buffer does not match the soa backend at n=%d", s.n)
		}
	default:
		if r.vec == nil || len(r.vec) != size {
			return fmt.Errorf("core: Result buffer does not match the %v backend at n=%d", s.backend, s.n)
		}
	}
	r.sim = s
	return nil
}

// ApplyLayer applies one more QAOA layer e^{−iβM}·e^{−iγĈ} to an
// existing result. It lets callers build up depth incrementally (e.g.
// the Fig. 4 sweep reuses a single evolution instead of re-simulating
// prefixes). A NaN or infinite angle returns an error wrapping
// evaluator.ErrNonFiniteAngle, and a nil Result or one whose storage
// does not match this simulator an error, both before any amplitude
// changes.
func (s *Simulator) ApplyLayer(r *Result, gamma, beta float64) error {
	if err := evaluator.CheckAngles([]float64{gamma}, []float64{beta}); err != nil {
		return err
	}
	if err := s.bindResult(r); err != nil {
		return err
	}
	s.applyLayer(r, gamma, beta)
	return nil
}

// applyLayer is ApplyLayer on a checked Result and finite angles. With
// the x mixer the split layouts fold the phase into the tiled F = 2
// layer, and a group state then runs its top qubits' pivot passes; the
// Serial reference and the xy mixers run a phase pass, then the mixer.
func (s *Simulator) applyLayer(r *Result, gamma, beta float64) {
	ph := s.phase(r, gamma)
	switch {
	case s.opts.Mixer != MixerX:
		s.applyPhase(r, ph)
		s.applyXY(r, beta)
	case r.soa32 != nil:
		r.soa32.ApplyPhaseThenUniformRX(s.pool, ph, beta)
		s.mirrorRX(r, beta)
	case r.soa != nil:
		r.soa.ApplyPhaseThenUniformRX(s.pool, ph, beta)
		s.mirrorRX(r, beta)
	default:
		statevec.ApplyPhase(r.vec, ph)
		statevec.ApplyUniformRX(r.vec, beta)
	}
}

// phase returns the source of e^{−iγĈ} over the stored amplitudes:
// with level codes, the per-γ table rebuilt in r's scratch (a few
// hundred sincos calls instead of 2^n); otherwise per-amplitude sincos
// of the float64 entries.
func (s *Simulator) phase(r *Result, gamma float64) statevec.Phase {
	ph := s.costSource(gamma)
	if s.levels == nil {
		return ph
	}
	if cap(r.tab) < s.nlevels {
		// A Result last bound to a simulator with fewer levels grows once.
		r.tab = make([]complex128, s.nlevels)
	}
	r.tab = r.tab[:s.nlevels]
	s.levels.PhaseTableInto(r.tab, gamma)
	ph.Tab = r.tab
	return ph
}

// costSource returns the cost over the stored amplitudes without a
// phase table, as the reductions read it: the float64 entries, or the
// codes with their grid (Min + Scale·code, the entries bit for bit).
func (s *Simulator) costSource(gamma float64) statevec.Phase {
	ph := statevec.Phase{Diag: s.diag, Gamma: gamma}
	if q := s.levels; q != nil {
		ph.Codes, ph.Min, ph.Scale = q.Codes, q.Min, q.Scale
	}
	return ph
}

func (s *Simulator) applyPhase(r *Result, ph statevec.Phase) {
	switch {
	case r.soa32 != nil:
		r.soa32.ApplyPhase(s.pool, ph)
	case r.soa != nil:
		r.soa.ApplyPhase(s.pool, ph)
	default:
		statevec.ApplyPhase(r.vec, ph)
	}
}

// applyXY runs one Trotter step of the xy mixer, edge by edge.
func (s *Simulator) applyXY(r *Result, beta float64) {
	for _, e := range s.mixerPairs {
		switch {
		case r.soa32 != nil:
			r.soa32.ApplyXY(s.pool, e.U, e.V, beta)
		case r.soa != nil:
			r.soa.ApplyXY(s.pool, e.U, e.V, beta)
		default:
			statevec.ApplyXY(r.vec, e.U, e.V, beta)
		}
	}
}

// Expectation returns ⟨γ,β|Ĉ|γ,β⟩ against the cached cost entries —
// the QAOA objective, evaluated as a single inner product (QOKit's
// get_expectation).
func (r *Result) Expectation() float64 {
	s := r.sim
	if r.soa32 != nil {
		return s.weight() * statevec.ExpectationPlanes(s.pool, r.soa32.Re, r.soa32.Im, s.costSource(0))
	}
	if r.soa != nil {
		return s.weight() * statevec.ExpectationPlanes(s.pool, r.soa.Re, r.soa.Im, s.costSource(0))
	}
	return statevec.ExpectationDiag(r.vec, s.diag)
}

// ErrObservableLength reports a diagonal observable whose length is
// not 2^n.
var ErrObservableLength = errors.New("core: observable diagonal has the wrong length")

// ExpectationOf evaluates the expectation of a caller-supplied
// diagonal observable (QOKit's get_expectation with a custom costs
// argument). A diagonal whose length is not 2^n returns an error
// wrapping ErrObservableLength, and one with a NaN or ±Inf entry an
// error wrapping poly.ErrNonFiniteCost.
func (r *Result) ExpectationOf(diag []float64) (float64, error) {
	s := r.sim
	if len(diag) != 1<<uint(s.n) {
		return 0, fmt.Errorf("%w: %d, want 2^%d = %d", ErrObservableLength, len(diag), s.n, 1<<uint(s.n))
	}
	var e float64
	switch {
	case len(s.group) > 1 && r.soa32 != nil:
		e = expectGroup(s.pool, r.soa32.Re, r.soa32.Im, diag, s.group)
	case len(s.group) > 1:
		e = expectGroup(s.pool, r.soa.Re, r.soa.Im, diag, s.group)
	case r.soa32 != nil:
		e = r.soa32.ExpectationDiag(s.pool, diag)
	case r.soa != nil:
		e = r.soa.ExpectationDiag(s.pool, diag)
	default:
		e = statevec.ExpectationDiag(r.vec, diag)
	}
	return finiteExpectation(e, diag)
}

// finiteExpectation returns e, an expectation of obs over a finite
// state. Every entry of obs meets a probability in the reduction, and
// a NaN or ±Inf entry makes it non-finite even against a zero one, so
// only a non-finite e needs the scan that names the entry; the error
// wraps poly.ErrNonFiniteCost.
func finiteExpectation(e float64, obs []float64) (float64, error) {
	if !math.IsNaN(e) && !math.IsInf(e, 0) {
		return e, nil
	}
	if _, err := costvec.CheckDiagonal(obs); err != nil {
		return 0, fmt.Errorf("core: observable: %w", err)
	}
	return 0, fmt.Errorf("core: observable: %w: the expectation overflows to %v", poly.ErrNonFiniteCost, e)
}

// StateVector returns the evolved state as a complex128 vector
// (QOKit's get_statevector) over all 2^n basis states, expanded from
// the stored indices on a group state. The returned slice is a copy.
func (r *Result) StateVector() statevec.Vec {
	if len(r.sim.group) > 1 {
		v := make(statevec.Vec, 1<<uint(r.sim.n))
		if r.soa32 != nil {
			planesInto(v, r.soa32.Re, r.soa32.Im)
		} else {
			planesInto(v, r.soa.Re, r.soa.Im)
		}
		evaluator.FillGroup(v, r.sim.group)
		return v
	}
	if r.soa32 != nil {
		return r.soa32.ToVec()
	}
	if r.soa != nil {
		return r.soa.ToVec()
	}
	return r.vec.Clone()
}

// Probabilities returns |ψ_x|² for every one of the 2^n basis states
// (QOKit's get_probabilities). dst is reused when large enough. When
// preserveState is false the full-state SoA backend is permitted to
// overwrite its real parts with the probabilities to save a pass —
// mirroring the preserve_state=False memory optimization of Listing 3
// — after which the Result must not be reused. A group state's planes
// are too short to hold 2^n probabilities, so it fills dst (expanded
// from the stored indices) either way.
func (r *Result) Probabilities(dst []float64, preserveState bool) []float64 {
	if len(r.sim.group) > 1 {
		full := 1 << uint(r.sim.n)
		if cap(dst) < full {
			dst = make([]float64, full)
		}
		dst = dst[:full]
		if r.soa32 != nil {
			r.soa32.Probabilities(dst[:r.sim.stored()])
		} else {
			r.soa.Probabilities(dst[:r.sim.stored()])
		}
		evaluator.FillGroup(dst, r.sim.group)
		return dst
	}
	if r.soa32 != nil {
		return r.soa32.Probabilities(dst)
	}
	if r.soa != nil {
		if !preserveState {
			re, im := r.soa.Re, r.soa.Im
			for i := range re {
				re[i] = re[i]*re[i] + im[i]*im[i]
			}
			return re
		}
		return r.soa.Probabilities(dst)
	}
	return r.vec.Probabilities(dst)
}

// Norm returns ‖ψ‖₂, which stays 1 up to rounding for any parameters
// (useful as a numerical health check).
func (r *Result) Norm() float64 {
	if r.soa32 != nil {
		return math.Sqrt(r.sim.weight() * r.soa32.NormSquared(r.sim.pool))
	}
	if r.soa != nil {
		return math.Sqrt(r.sim.weight() * r.soa.NormSquared(r.sim.pool))
	}
	return r.vec.Norm()
}
