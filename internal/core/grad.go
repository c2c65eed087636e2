package core

import (
	"context"
	"fmt"
	"math"

	"qokit/internal/statevec"
)

// This file implements adjoint-mode (reverse) differentiation of the
// QAOA objective E(γ,β) = ⟨γ,β|Ĉ|γ,β⟩ — the exact analytic gradient
// with respect to all 2p parameters for the cost of O(1) extra state
// evolutions, independent of p (the reverse-mode trick of Medvidović &
// Carleo, arXiv:2009.01760, specialized to this simulator's
// diagonal-phase + product-mixer structure).
//
// Writing the evolution as |ψ_p⟩ = V_p⋯V_1|s⟩ with V_ℓ = B(β_ℓ)G(γ_ℓ),
// where G is the diagonal phase operator and B the mixer, the engine
// keeps two states: the ket ψ and the cost-weighted bra λ, seeded as
// λ = Ĉ|ψ_p⟩ after one forward pass. Walking layers backwards, with
// ψ = ψ_ℓ and λ = (V_{ℓ+1}⋯V_p)†Ĉψ_p:
//
//	∂E/∂β_ℓ = 2·Im ⟨λ|M|ψ⟩          (mixer generator M, evaluated
//	                                 per commuting factor for the
//	                                 Trotterized xy mixers)
//	∂E/∂γ_ℓ = 2·Im ⟨λ|Ĉ|ψ⟩          (after undoing the mixer)
//
// and both states are evolved one layer backwards through the exact
// inverses B(−β_ℓ), G(−γ_ℓ). Each generator term commutes with its own
// factor of the layer, so the reverse pass evolves ψ and λ together and
// reads each derivative off the amplitudes it is already rotating: one
// joint pass per qubit (per edge for the xy mixers) adds up
// Im ⟨λ|X_q|ψ⟩ and applies RX(−β) to both states, and one elementwise
// pass adds up Im ⟨λ|Ĉ|ψ⟩ and undoes the phase on both from a single
// table read or sincos per amplitude (statevec's Reverse kernels). A
// gradient is therefore one forward pass plus one joint reverse pass —
// about three mixer sweeps of memory traffic per layer — versus 4p
// simulations for central finite differences, the asymptotic win the
// high-depth regime needs. The reverse always runs per-qubit sweeps,
// whatever route (FWHT, F = 2 fusion) the forward took.

// GradBuffers is the reusable workspace of one adjoint gradient
// evaluation: the pair of state buffers (ket ψ, cost-weighted bra λ)
// the reverse pass evolves, and the phase-table scratch inside them.
// Allocate once per goroutine with NewGradBuffers and reuse across
// arbitrarily many SimulateQAOAGradInto calls; after warm-up a
// gradient evaluation performs zero state-buffer allocations. A
// GradBuffers must not be shared by concurrent evaluations — give each
// worker its own pair, the pattern internal/sweep.Engine.SweepGrad
// implements.
type GradBuffers struct {
	psi, lam *Result
}

// NewGradBuffers allocates a gradient workspace sized for this
// simulator's backend (two state buffers).
func (s *Simulator) NewGradBuffers() *GradBuffers {
	return &GradBuffers{psi: s.NewResult(), lam: s.NewResult()}
}

// SimulateQAOAGrad runs the adjoint gradient evaluation with fresh
// buffers: it returns the objective E(γ,β) together with the exact
// gradients ∂E/∂γ_ℓ and ∂E/∂β_ℓ for every layer. Batch and optimizer
// workloads should allocate a GradBuffers once and call
// SimulateQAOAGradInto instead.
func (s *Simulator) SimulateQAOAGrad(gamma, beta []float64) (energy float64, gradGamma, gradBeta []float64, err error) {
	w := s.NewGradBuffers()
	gradGamma = make([]float64, len(gamma))
	gradBeta = make([]float64, len(beta))
	energy, err = s.SimulateQAOAGradInto(w, gamma, beta, gradGamma, gradBeta)
	if err != nil {
		return 0, nil, nil, err
	}
	return energy, gradGamma, gradBeta, nil
}

// SimulateQAOAGradInto is SimulateQAOAGrad evolving into caller-owned
// storage: one forward pass fills w's ψ buffer, the joint reverse pass
// walks both buffers back through the layers, and the per-layer
// derivatives are written into gradGamma and gradBeta (which must have
// length p). w must come from NewGradBuffers on a simulator with the
// same backend and qubit count; its previous contents are overwritten.
// On return, w's ψ buffer no longer holds the final state — callers
// needing the state should run SimulateQAOAInto separately.
//
// Distinct GradBuffers may be evolved concurrently against one shared
// Simulator, exactly like Results in SimulateQAOAInto.
func (s *Simulator) SimulateQAOAGradInto(w *GradBuffers, gamma, beta, gradGamma, gradBeta []float64) (float64, error) {
	return s.SimulateQAOAGradIntoCtx(nil, w, gamma, beta, gradGamma, gradBeta)
}

// SimulateQAOAGradIntoCtx is SimulateQAOAGradInto under a request
// context: the forward pass reaches the RouteAuto calibration path,
// and ctx lets a cancelled request fail fast there instead of burning
// a timed mixer application. A nil ctx behaves like
// SimulateQAOAGradInto.
func (s *Simulator) SimulateQAOAGradIntoCtx(ctx context.Context, w *GradBuffers, gamma, beta, gradGamma, gradBeta []float64) (float64, error) {
	return s.adjoint(ctx, w, gamma, beta, nil, gradGamma, gradBeta)
}

// SimulateQAOAGradObsIntoCtx differentiates the expectation of a
// caller-supplied diagonal observable instead of the evolution cost:
// it returns ⟨obs⟩ after evolving under THIS simulator's cost diagonal
// together with ∂⟨obs⟩/∂γ_ℓ and ∂⟨obs⟩/∂β_ℓ. The reverse pass is the
// standard adjoint with one change — the bra is seeded λ = obs⊙ψ_p
// rather than Ĉ|ψ_p⟩; every per-layer reduction still runs against the
// evolution diagonal, because that is the generator the γ angles
// multiply. The light-cone backend uses this with obs = Z_uZ_v on a
// cone's root edge while evolving under the cone's full MaxCut cost.
// obs must have length 2^n; storage contracts match
// SimulateQAOAGradIntoCtx.
func (s *Simulator) SimulateQAOAGradObsIntoCtx(ctx context.Context, w *GradBuffers, gamma, beta, obs, gradGamma, gradBeta []float64) (float64, error) {
	if len(obs) != 1<<uint(s.n) {
		return 0, fmt.Errorf("core: observable diagonal length %d, want 2^%d = %d", len(obs), s.n, 1<<uint(s.n))
	}
	return s.adjoint(ctx, w, gamma, beta, obs, gradGamma, gradBeta)
}

// adjoint is the shared gradient loop: forward pass, λ = obs⊙ψ_p (the
// cost diagonal when obs is nil), then one joint reverse step per layer.
func (s *Simulator) adjoint(ctx context.Context, w *GradBuffers, gamma, beta, obs, gradGamma, gradBeta []float64) (float64, error) {
	if len(gamma) != len(beta) {
		return 0, fmt.Errorf("core: len(gamma)=%d != len(beta)=%d", len(gamma), len(beta))
	}
	if len(gradGamma) != len(gamma) || len(gradBeta) != len(beta) {
		return 0, fmt.Errorf("core: gradient storage lengths (%d, %d) do not match depth p=%d",
			len(gradGamma), len(gradBeta), len(gamma))
	}
	if w == nil || w.psi == nil || w.lam == nil {
		return 0, fmt.Errorf("core: nil GradBuffers; use NewGradBuffers")
	}
	if err := s.SimulateQAOAIntoCtx(ctx, w.psi, gamma, beta); err != nil {
		return 0, err
	}
	if err := s.bindResult(w.lam); err != nil {
		return 0, err
	}
	if obs == nil {
		obs = s.diag
	}
	energy := w.psi.ExpectationOf(obs)

	// Seed the bra side: λ = obs⊙|ψ_p⟩ (the only non-unitary step).
	s.copyState(w.lam, w.psi)
	s.mulVec(w.lam, obs)

	for l := len(gamma) - 1; l >= 0; l-- {
		gradBeta[l] = 2 * s.reverseMixer(w, beta[l])
		// The phase undo is skipped on the last step, where no earlier
		// derivative needs the states.
		gradGamma[l] = 2 * s.reversePhase(w, gamma[l], l > 0)
	}
	return energy, nil
}

// reverseMixer undoes the layer's mixer on both states and returns
// Im ⟨λ|M|ψ⟩ for the post-mixer pair. For the transverse-field mixer
// each qubit's term commutes with every RX factor, so the per-qubit
// joint passes read it at any point of the undo; for the Trotterized
// xy mixers the edge factors do not commute, so the edges are undone
// in reverse application order, each reading its own term.
func (s *Simulator) reverseMixer(w *GradBuffers, beta float64) float64 {
	lam, psi := w.lam, w.psi
	var d float64
	if s.opts.Mixer == MixerX {
		for q := 0; q < s.n; q++ {
			switch {
			case lam.soa32 != nil:
				d += lam.soa32.ReverseRX(s.pool, psi.soa32, q, beta)
			case lam.soa != nil:
				d += lam.soa.ReverseRX(s.pool, psi.soa, q, beta)
			case s.backend == BackendSerial:
				d += statevec.ReverseRX(lam.vec, psi.vec, q, beta)
			default:
				d += s.pool.ReverseRX(lam.vec, psi.vec, q, beta)
			}
		}
		return d
	}
	for k := len(s.mixerPairs) - 1; k >= 0; k-- {
		e := s.mixerPairs[k]
		switch {
		case lam.soa32 != nil:
			d += lam.soa32.ReverseXY(s.pool, psi.soa32, e.U, e.V, beta)
		case lam.soa != nil:
			d += lam.soa.ReverseXY(s.pool, psi.soa, e.U, e.V, beta)
		case s.backend == BackendSerial:
			d += statevec.ReverseXY(lam.vec, psi.vec, e.U, e.V, beta)
		default:
			d += s.pool.ReverseXY(lam.vec, psi.vec, e.U, e.V, beta)
		}
	}
	return d
}

// reversePhase returns Im ⟨λ|Ĉ|ψ⟩ and, when undo is set, undoes the
// layer's phase e^{−iγĈ} on both states.
func (s *Simulator) reversePhase(w *GradBuffers, gamma float64, undo bool) float64 {
	lam, psi := w.lam, w.psi
	if s.opts.RecomputePhase {
		return s.reversePhaseRecompute(lam, psi, gamma, undo)
	}
	ph := statevec.Phase{Diag: s.diag, Gamma: gamma}
	if undo {
		ph = s.phase(psi, gamma)
	}
	switch {
	case lam.soa32 != nil:
		return lam.soa32.ReversePhase(s.pool, psi.soa32, ph, undo)
	case lam.soa != nil:
		return lam.soa.ReversePhase(s.pool, psi.soa, ph, undo)
	case s.backend == BackendSerial:
		return statevec.ReversePhase(lam.vec, psi.vec, ph, undo)
	default:
		return s.pool.ReversePhase(lam.vec, psi.vec, ph, undo)
	}
}

// reversePhaseRecompute is reversePhase for the RecomputePhase
// ablation: f(x) is re-derived from the compiled terms for the
// reduction and the undo alike, as in the forward pass.
func (s *Simulator) reversePhaseRecompute(lam, psi *Result, gamma float64, undo bool) float64 {
	eval := s.compiled.Eval
	if s.compiled.Len() == 0 {
		diag := s.diag
		eval = func(x uint64) float64 { return diag[x] }
	}
	if lam.soa != nil {
		lr, li, pr, pi := lam.soa.Re, lam.soa.Im, psi.soa.Re, psi.soa.Im
		return s.pool.Reduce(len(lr), func(lo, hi int) float64 {
			var acc float64
			for i := lo; i < hi; i++ {
				f := eval(uint64(i))
				a, b, c, d := lr[i], li[i], pr[i], pi[i]
				acc += f * (a*d - b*c)
				if undo {
					sn, cs := math.Sincos(-gamma * f)
					lr[i], li[i] = a*cs+b*sn, b*cs-a*sn
					pr[i], pi[i] = c*cs+d*sn, d*cs-c*sn
				}
			}
			return acc
		})
	}
	lv, pv := lam.vec, psi.vec
	reduce := func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			f := eval(uint64(i))
			x, y := lv[i], pv[i]
			acc += f * (real(x)*imag(y) - imag(x)*real(y))
			if undo {
				sn, cs := math.Sincos(-gamma * f)
				lv[i], pv[i] = x*complex(cs, -sn), y*complex(cs, -sn)
			}
		}
		return acc
	}
	if s.backend == BackendSerial {
		return reduce(0, len(lv))
	}
	return s.pool.Reduce(len(lv), reduce)
}

// copyState overwrites dst's amplitudes with src's (same backend, no
// allocation).
func (s *Simulator) copyState(dst, src *Result) {
	switch {
	case src.soa32 != nil:
		dst.soa32.Copy(src.soa32)
	case src.soa != nil:
		dst.soa.Copy(src.soa)
	default:
		copy(dst.vec, src.vec)
	}
}

// mulVec multiplies r elementwise by a real diagonal.
func (s *Simulator) mulVec(r *Result, diag []float64) {
	switch {
	case r.soa32 != nil:
		r.soa32.MulDiag(s.pool, diag)
	case r.soa != nil:
		r.soa.MulDiag(s.pool, diag)
	case s.backend == BackendSerial:
		statevec.MulDiag(r.vec, diag)
	default:
		s.pool.MulDiag(r.vec, diag)
	}
}
