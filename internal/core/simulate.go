package core

import (
	"errors"
	"fmt"
	"math"

	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/poly"
	"qokit/internal/shard"
	"qokit/internal/statevec"
)

// Result is the evolved QAOA state together with the simulator that
// produced it. Mirroring QOKit, the underlying representation depends
// on the backend — a complex128 vector on Serial, a one-rank shard of
// split planes (internal/shard) on SoA — and, for symmetric costs on
// SoA, holds only the 2^(n−h) indices whose top h bits are zero (see
// Simulator); portable consumers should use the output methods
// (Expectation, Overlap, StateVector, Probabilities), which always
// speak of all 2^n basis states, rather than reach into the
// representation.
type Result struct {
	sim *Simulator
	st  shard.Shard  // SoA, in either precision
	vec statevec.Vec // Serial
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
	if s.serial != nil {
		return &Result{sim: s, vec: statevec.New(s.n)}
	}
	return &Result{sim: s, st: shard.NewShard(s.eng, 0, s.opts.SinglePrecision)}
}

// SimulateQAOAInto is SimulateQAOA evolving into caller-owned storage:
// it resets r to the initial state and applies the p layers in place;
// the serial backend allocates nothing, and SoA only its kernel
// launches. r must come from NewResult (or a prior SimulateQAOA) on a
// simulator with the same backend, precision and stored size; its
// previous contents are overwritten.
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
	if err := s.bindResult(r); err != nil {
		return err
	}
	if s.serial != nil {
		s.serial.reset(r.vec)
	} else {
		r.st.Reset()
	}
	for l := range gamma {
		s.applyLayer(r, gamma[l], beta[l])
	}
	return nil
}

// bindResult checks that r's storage matches this simulator's backend,
// precision and stored size and rebinds it, leaving the amplitudes
// untouched: light-cone workspaces rebind one Result across the
// simulators of cones of one size.
func (s *Simulator) bindResult(r *Result) error {
	if r == nil {
		return fmt.Errorf("core: nil Result; use NewResult")
	}
	if s.serial != nil {
		if len(r.vec) != 1<<uint(s.n) {
			return fmt.Errorf("core: Result buffer does not match the %v backend at n=%d", s.backend, s.n)
		}
	} else {
		_, single := r.st.(*shard.State[float32])
		if r.st == nil || single != s.opts.SinglePrecision || r.st.Bind(s.eng, 0) != nil {
			return fmt.Errorf("core: Result buffer does not match the %v backend (single precision %v) at n=%d", s.backend, s.opts.SinglePrecision, s.n)
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

// applyLayer is ApplyLayer on a checked Result and finite angles: the
// shard's layer (with the x mixer, the phase folded into the tiled
// F = 2 layer, then a group state's pivot passes; with the xy mixers a
// phase pass, then the edges), or Serial's.
func (s *Simulator) applyLayer(r *Result, gamma, beta float64) {
	if s.serial != nil {
		s.serial.layer(r.vec, gamma, beta)
		return
	}
	// A one-rank shard calls no collective, so it cannot fail.
	_ = r.st.Layer(nil, gamma, beta)
}

// Expectation returns ⟨γ,β|Ĉ|γ,β⟩ against the cached cost entries —
// the QAOA objective, evaluated as a single inner product (QOKit's
// get_expectation).
func (r *Result) Expectation() float64 {
	if s := r.sim.serial; s != nil {
		return statevec.ExpectationDiag(r.vec, s.diag)
	}
	return r.st.Expectation()
}

// ErrObservableLength reports a diagonal observable whose length is
// not 2^n.
var ErrObservableLength = errors.New("core: observable diagonal has the wrong length")

// ExpectationOf evaluates the expectation of a caller-supplied
// diagonal observable (QOKit's get_expectation with a custom costs
// argument); a group state sums each stored probability against the
// orbit of its index. A diagonal whose length is not 2^n returns an
// error wrapping ErrObservableLength, and one with a NaN or ±Inf entry
// an error wrapping poly.ErrNonFiniteCost.
func (r *Result) ExpectationOf(diag []float64) (float64, error) {
	s := r.sim
	if len(diag) != 1<<uint(s.n) {
		return 0, fmt.Errorf("%w: %d, want 2^%d = %d", ErrObservableLength, len(diag), s.n, 1<<uint(s.n))
	}
	if s.serial != nil {
		return finiteExpectation(statevec.ExpectationDiag(r.vec, diag), diag)
	}
	return finiteExpectation(r.st.ExpectationOf(diag), diag)
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
	if r.vec != nil {
		return r.vec.Clone()
	}
	v := r.st.Vec()
	if group := r.sim.group(); len(group) > 1 {
		v = append(v, make(statevec.Vec, (len(group)-1)*len(v))...)
		evaluator.FillGroup(v, group)
	}
	return v
}

// Probabilities returns |ψ_x|² for every one of the 2^n basis states
// (QOKit's get_probabilities). dst is reused when large enough. When
// preserveState is false the full-state float64 SoA backend is
// permitted to overwrite its real parts with the probabilities to save
// a pass — mirroring the preserve_state=False memory optimization of
// Listing 3 — after which the Result must not be reused. A group
// state's planes are too short to hold 2^n probabilities, so it fills
// dst (expanded from the stored indices) either way.
func (r *Result) Probabilities(dst []float64, preserveState bool) []float64 {
	if r.vec != nil {
		return r.vec.Probabilities(dst)
	}
	return r.st.Probabilities(dst, preserveState)
}

// Norm returns ‖ψ‖₂, which stays 1 up to rounding for any parameters
// (useful as a numerical health check).
func (r *Result) Norm() float64 {
	if r.vec != nil {
		return r.vec.Norm()
	}
	return math.Sqrt(r.sim.eng.Weight() * r.st.NormSquared())
}
