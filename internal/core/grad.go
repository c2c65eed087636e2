package core

import (
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
// reads each derivative off the amplitudes it is already rotating: per
// qubit (per edge for the xy mixers) it adds up Im ⟨λ|X_q|ψ⟩ and
// applies RX(−β) to both states, then it adds up Im ⟨λ|Ĉ|ψ⟩ and undoes
// the phase on both from a single table read or sincos per amplitude.
// On the split layouts (SoA, SoA32) the whole x-mixer step, phase
// included, is one cache-tiled kernel (statevec's ReverseUniformRX):
// 2–3 passes over the state pair per layer instead of n + 1, and the
// forward layer is the tiled F = 2 kernel, 2–3 passes instead of n.
// The complex128 backends run one joint pass per qubit and one phase
// pass. A gradient therefore costs one forward pass plus one joint
// reverse pass, versus 4p simulations for central finite differences —
// the asymptotic win the high-depth regime needs. The reverse stays
// per qubit even where the forward pass fuses qubit pairs: a pair-fused
// reverse measured slower. On a group state (see Simulator) both states
// hold the 2^(n−h) stored indices only, each top qubit's joint step is
// a pivot reverse pass that runs before the tiled step, and every
// reduction over the stored amplitudes is 2^−h of the full state's, so
// it is scaled by 2^h.

// GradBuffers is the reusable workspace of one adjoint gradient
// evaluation: the pair of state buffers (ket ψ, cost-weighted bra λ)
// the reverse pass evolves, and the phase-table scratch inside them.
// Allocate once per goroutine with NewGradBuffers and reuse across
// arbitrarily many SimulateQAOAGradInto calls; after warm-up a
// gradient evaluation performs zero state-buffer allocations. A
// GradBuffers must not be shared by concurrent evaluations — give each
// worker its own pair, as each Workspace holds one.
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
	return s.adjoint(w, gamma, beta, nil, gradGamma, gradBeta)
}

// SimulateQAOAGradObsInto differentiates the expectation of a
// caller-supplied diagonal observable instead of the evolution cost:
// it returns ⟨obs⟩ after evolving under THIS simulator's cost diagonal
// together with ∂⟨obs⟩/∂γ_ℓ and ∂⟨obs⟩/∂β_ℓ. The reverse pass is the
// standard adjoint with one change — the bra is seeded λ = obs⊙ψ_p
// rather than Ĉ|ψ_p⟩; every per-layer reduction still runs against the
// evolution diagonal, because that is the generator the γ angles
// multiply. The light-cone backend uses this with obs = Z_uZ_v on a
// cone's root edge while evolving under the cone's full MaxCut cost.
// obs must have length 2^n; storage contracts match
// SimulateQAOAGradInto.
func (s *Simulator) SimulateQAOAGradObsInto(w *GradBuffers, gamma, beta, obs, gradGamma, gradBeta []float64) (float64, error) {
	if len(obs) != 1<<uint(s.n) {
		return 0, fmt.Errorf("%w: %d, want 2^%d = %d", ErrObservableLength, len(obs), s.n, 1<<uint(s.n))
	}
	return s.adjoint(w, gamma, beta, obs, gradGamma, gradBeta)
}

// adjoint is the shared gradient loop: forward pass, λ = obs⊙ψ_p (the
// cost diagonal when obs is nil; its symmetric projection on a group
// state), then one joint reverse step per layer.
func (s *Simulator) adjoint(w *GradBuffers, gamma, beta, obs, gradGamma, gradBeta []float64) (float64, error) {
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
	if err := s.SimulateQAOAInto(w.psi, gamma, beta); err != nil {
		return 0, err
	}
	if err := s.bindResult(w.lam); err != nil {
		return 0, err
	}
	var energy float64
	if obs == nil {
		energy = w.psi.Expectation()
	} else {
		var err error
		if energy, err = w.psi.ExpectationOf(obs); err != nil {
			return 0, err
		}
	}

	// Seed the bra side: λ = obs⊙|ψ_p⟩ (the only non-unitary step).
	s.seedBra(w, obs)

	scale := 2 * s.weight()
	for l := len(gamma) - 1; l >= 0; l-- {
		// The phase undo is skipped on the last step, where no earlier
		// derivative needs the states.
		dBeta, dGamma := s.reverseLayer(w, gamma[l], beta[l], l > 0)
		gradBeta[l], gradGamma[l] = scale*dBeta, scale*dGamma
	}
	return energy, nil
}

// reverseLayer walks both states back through one layer and returns
// Im ⟨λ|M|ψ⟩ and Im ⟨λ|Ĉ|ψ⟩, undoing the phase only when undo is set.
// On the split layouts the x-mixer step and the phase are one tiled
// kernel, except in the Fig. 2 ablation, whose phase step re-derives
// f(x) from the compiled terms.
func (s *Simulator) reverseLayer(w *GradBuffers, gamma, beta float64, undo bool) (dBeta, dGamma float64) {
	lam, psi := w.lam, w.psi
	if s.opts.Mixer != MixerX || lam.vec != nil || s.opts.RecomputePhase {
		return s.reverseMixer(w, beta), s.reversePhase(w, gamma, undo)
	}
	ph := statevec.Phase{Diag: s.diag[:s.stored()], Gamma: gamma}
	if undo {
		ph = s.phase(psi, gamma)
	}
	// The pivots go first: the tiled step reads the phase term in its
	// last pass, after every RX of the layer is undone.
	mirror := s.reverseMirrorRX(w, beta)
	if lam.soa32 != nil {
		dBeta, dGamma = lam.soa32.ReverseUniformRX(s.pool, psi.soa32, beta, ph, undo)
	} else {
		dBeta, dGamma = lam.soa.ReverseUniformRX(s.pool, psi.soa, beta, ph, undo)
	}
	return mirror + dBeta, dGamma
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
		d = s.reverseMirrorRX(w, beta)
		switch {
		case lam.soa32 != nil:
			tiled, _ := lam.soa32.ReverseUniformRX(s.pool, psi.soa32, beta, statevec.Phase{}, false)
			d += tiled
		case lam.soa != nil:
			tiled, _ := lam.soa.ReverseUniformRX(s.pool, psi.soa, beta, statevec.Phase{}, false)
			d += tiled
		default:
			for q := 0; q < s.n; q++ {
				if s.backend == BackendSerial {
					d += statevec.ReverseRX(lam.vec, psi.vec, q, beta)
				} else {
					d += s.pool.ReverseRX(lam.vec, psi.vec, q, beta)
				}
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
	ph := statevec.Phase{Diag: s.diag[:s.stored()], Gamma: gamma}
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

// seedBra sets λ = obs⊙ψ without allocating, with the cost diagonal
// for a nil obs: a copy and a diagonal multiply on the full state, and
// on a group state one pass of seedGroup, which reads each orbit entry
// of obs on the fly (the cost's one entry per orbit suffices).
func (s *Simulator) seedBra(w *GradBuffers, obs []float64) {
	lam, psi := w.lam, w.psi
	group := s.group
	if obs == nil {
		obs, group = s.diag, group[:1]
	}
	switch {
	case len(s.group) > 1 && psi.soa32 != nil:
		seedGroup(s.pool, lam.soa32.Re, lam.soa32.Im, psi.soa32.Re, psi.soa32.Im, obs, group)
	case len(s.group) > 1:
		seedGroup(s.pool, lam.soa.Re, lam.soa.Im, psi.soa.Re, psi.soa.Im, obs, group)
	case psi.soa32 != nil:
		lam.soa32.Copy(psi.soa32)
		lam.soa32.MulDiag(s.pool, obs)
	case psi.soa != nil:
		lam.soa.Copy(psi.soa)
		lam.soa.MulDiag(s.pool, obs)
	case s.backend == BackendSerial:
		copy(lam.vec, psi.vec)
		statevec.MulDiag(lam.vec, obs)
	default:
		copy(lam.vec, psi.vec)
		s.pool.MulDiag(lam.vec, obs)
	}
}
