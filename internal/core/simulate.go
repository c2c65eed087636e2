package core

import (
	"errors"
	"fmt"
	"math"

	"qokit/internal/evaluator"
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
	vec   statevec.Vec    // non-nil for Serial/Parallel backends
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
// the serial backend allocates nothing, and the pooled backends only
// their kernel launches. r must come from
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
		s.ApplyLayer(r, gamma[l], beta[l])
	}
	return nil
}

// resetResult rebinds r to this simulator and overwrites its storage
// with the initial state, without allocating.
func (s *Simulator) resetResult(r *Result) error {
	if err := s.bindResult(r); err != nil {
		return err
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

// bindResult checks that r's storage matches this simulator's backend
// and qubit count and rebinds it, leaving the amplitudes untouched —
// the shared validation step of resetResult and the adjoint reverse
// pass (which rebinds the λ buffer without resetting it).
func (s *Simulator) bindResult(r *Result) error {
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
// prefixes). With the x mixer the phase folds into the first mixer
// pass (bit-identical to the separate passes, one traversal cheaper);
// the xy mixers, recomputed phases and the SeparatePhase ablation run
// the two operators separately. A group state then runs its top
// qubits' pivot passes.
func (s *Simulator) ApplyLayer(r *Result, gamma, beta float64) {
	if s.opts.Mixer == MixerX && !s.opts.SeparatePhase && !s.opts.RecomputePhase {
		s.applyFusedLayer(r, gamma, beta)
		return
	}
	s.applyPhase(r, gamma)
	s.applyMixer(r, beta)
}

// applyFusedLayer dispatches the fused phase+mixer kernels: the tiled
// F = 2 layer on the split layouts, the per-qubit sweep with the phase
// in its first pass on complex128.
func (s *Simulator) applyFusedLayer(r *Result, gamma, beta float64) {
	ph := s.phase(r, gamma)
	switch {
	case r.soa32 != nil:
		r.soa32.ApplyPhaseThenUniformRX(s.pool, ph, beta)
	case r.soa != nil:
		r.soa.ApplyPhaseThenUniformRX(s.pool, ph, beta)
	case s.backend == BackendSerial:
		statevec.ApplyPhaseThenUniformRX(r.vec, ph, beta)
	default:
		s.pool.ApplyPhaseThenUniformRX(r.vec, ph, beta)
	}
	s.mirrorRX(r, beta)
}

// phase returns the source of e^{−iγĈ} over the stored amplitudes:
// with level codes, the per-γ table rebuilt in r's scratch (a few
// hundred sincos calls instead of 2^n); otherwise per-amplitude sincos
// of the diagonal.
func (s *Simulator) phase(r *Result, gamma float64) statevec.Phase {
	ph := statevec.Phase{Diag: s.diag[:s.stored()], Gamma: gamma}
	if s.levels == nil {
		return ph
	}
	if cap(r.tab) < s.nlevels {
		// A Result last bound to a simulator with fewer levels grows once.
		r.tab = make([]complex128, s.nlevels)
	}
	r.tab = r.tab[:s.nlevels]
	s.levels.PhaseTableInto(r.tab, gamma)
	ph.Codes, ph.Tab = s.levels.Codes, r.tab
	return ph
}

func (s *Simulator) applyPhase(r *Result, gamma float64) {
	if s.opts.RecomputePhase {
		s.applyPhaseRecompute(r, gamma)
		return
	}
	ph := s.phase(r, gamma)
	switch {
	case r.soa32 != nil:
		r.soa32.ApplyPhase(s.pool, ph)
	case r.soa != nil:
		r.soa.ApplyPhase(s.pool, ph)
	case s.backend == BackendSerial:
		statevec.ApplyPhase(r.vec, ph)
	default:
		s.pool.ApplyPhase(r.vec, ph)
	}
}

// applyPhaseRecompute is the no-precompute ablation: every layer
// re-derives f(x) from the compiled terms before exponentiating,
// paying O(|T|) popcounts per amplitude per layer. If the simulator
// was built from a raw diagonal (no terms available) it falls back to
// an equivalent-cost scan so timing ablations remain meaningful.
func (s *Simulator) applyPhaseRecompute(r *Result, gamma float64) {
	eval := s.compiled.Eval
	if s.compiled.Len() == 0 {
		diag := s.diag
		eval = func(x uint64) float64 { return diag[x] }
	}
	if r.soa != nil {
		re, im := r.soa.Re, r.soa.Im
		s.pool.Run(len(re), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sn, cs := math.Sincos(-gamma * eval(uint64(i)))
				pr, pi := re[i], im[i]
				re[i] = pr*cs - pi*sn
				im[i] = pr*sn + pi*cs
			}
		})
		return
	}
	apply := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sn, cs := math.Sincos(-gamma * eval(uint64(i)))
			r.vec[i] *= complex(cs, sn)
		}
	}
	if s.backend == BackendSerial {
		apply(0, len(r.vec))
		return
	}
	s.pool.Run(len(r.vec), apply)
}

func (s *Simulator) applyMixer(r *Result, beta float64) {
	if s.opts.Mixer == MixerX {
		s.applyMixerSweep(r, beta)
		return
	}
	// xy mixers share the per-edge sweep.
	for _, e := range s.mixerPairs {
		switch {
		case r.soa32 != nil:
			r.soa32.ApplyXY(s.pool, e.U, e.V, beta)
		case r.soa != nil:
			r.soa.ApplyXY(s.pool, e.U, e.V, beta)
		case s.backend == BackendSerial:
			statevec.ApplyXY(r.vec, e.U, e.V, beta)
		default:
			s.pool.ApplyXY(r.vec, e.U, e.V, beta)
		}
	}
}

// applyMixerSweep runs the transverse-field mixer alone: the tiled
// F = 2 kernel on the split layouts (and the pivot passes on a group
// state), Algorithm 2's per-qubit sweep on complex128.
func (s *Simulator) applyMixerSweep(r *Result, beta float64) {
	switch {
	case r.soa32 != nil:
		r.soa32.ApplyUniformRX(s.pool, beta)
	case r.soa != nil:
		r.soa.ApplyUniformRX(s.pool, beta)
	case s.backend == BackendSerial:
		statevec.ApplyUniformRX(r.vec, beta)
	default:
		s.pool.ApplyUniformRX(r.vec, beta)
	}
	s.mirrorRX(r, beta)
}

// Expectation returns ⟨γ,β|Ĉ|γ,β⟩ against the cached cost diagonal —
// the QAOA objective, evaluated as a single inner product (QOKit's
// get_expectation).
func (r *Result) Expectation() float64 {
	s := r.sim
	if r.soa32 != nil {
		return s.weight() * r.soa32.ExpectationDiag(s.pool, s.diag[:s.stored()])
	}
	if r.soa != nil {
		return s.weight() * r.soa.ExpectationDiag(s.pool, s.diag[:s.stored()])
	}
	if s.backend == BackendSerial {
		return statevec.ExpectationDiag(r.vec, s.diag)
	}
	return s.pool.ExpectationDiag(r.vec, s.diag)
}

// ErrObservableLength reports a diagonal observable whose length is
// not 2^n.
var ErrObservableLength = errors.New("core: observable diagonal has the wrong length")

// ExpectationOf evaluates the expectation of a caller-supplied
// diagonal observable (QOKit's get_expectation with a custom costs
// argument). A diagonal whose length is not 2^n returns an error
// wrapping ErrObservableLength.
func (r *Result) ExpectationOf(diag []float64) (float64, error) {
	s := r.sim
	if len(diag) != 1<<uint(s.n) {
		return 0, fmt.Errorf("%w: %d, want 2^%d = %d", ErrObservableLength, len(diag), s.n, 1<<uint(s.n))
	}
	switch {
	case len(s.group) > 1 && r.soa32 != nil:
		return expectGroup(s.pool, r.soa32.Re, r.soa32.Im, diag, s.group), nil
	case len(s.group) > 1:
		return expectGroup(s.pool, r.soa.Re, r.soa.Im, diag, s.group), nil
	}
	if r.soa32 != nil {
		return r.soa32.ExpectationDiag(s.pool, diag), nil
	}
	if r.soa != nil {
		return r.soa.ExpectationDiag(s.pool, diag), nil
	}
	if s.backend == BackendSerial {
		return statevec.ExpectationDiag(r.vec, diag), nil
	}
	return s.pool.ExpectationDiag(r.vec, diag), nil
}

// Overlap returns the probability of measuring an optimal solution:
// Σ_{x∈argmin} |ψ_x|² (QOKit's get_overlap). A group state reads each
// ground state at its stored index.
func (r *Result) Overlap() float64 {
	if r.vec != nil {
		return statevec.OverlapStates(r.vec, r.sim.groundStates)
	}
	var s float64
	for _, x := range r.sim.groundStates {
		s += r.prob(int(r.sim.rep(x)))
	}
	return s
}

// prob returns |ψ_i|² of stored amplitude i, in float64.
func (r *Result) prob(i int) float64 {
	switch {
	case r.soa32 != nil:
		re, im := float64(r.soa32.Re[i]), float64(r.soa32.Im[i])
		return re*re + im*im
	case r.soa != nil:
		return r.soa.Re[i]*r.soa.Re[i] + r.soa.Im[i]*r.soa.Im[i]
	default:
		a := r.vec[i]
		return real(a)*real(a) + imag(a)*imag(a)
	}
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
		groupFill(v, r.sim.group)
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
		groupFill(dst, r.sim.group)
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
