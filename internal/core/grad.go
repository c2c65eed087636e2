package core

import (
	"fmt"

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
// reads each derivative off the amplitudes it is undoing:
//
//   - The Serial reference (complex128) runs one joint pass per qubit
//     (per edge for the xy mixers) that adds up Im ⟨λ|X_q|ψ⟩ and
//     applies RX(−β) to both states, then one pass that adds up
//     Im ⟨λ|Ĉ|ψ⟩ and undoes the phase from a single table read or
//     sincos per amplitude.
//   - On SoA the one-rank shard (internal/shard, reverse.go) runs the
//     x-mixer step as one tiled kernel (statevec.ReverseXPlanes) in the
//     Walsh basis, where Σ_q X_q is the diagonal n − 2w(y): it reads
//     all of ∂E/∂β off that diagonal, undoes the mixer there, and reads
//     and undoes the phase in its last pass. A group state's pivots
//     are parities of that diagonal, so the step runs no pivot pass.
//     The xy mixers run the per-edge joint kernels on the planes. The
//     forward layer stays the tiled F = 2 sweep with its pivot passes.
//
// A gradient therefore costs one forward pass plus one joint reverse
// pass, versus 4p simulations for central finite differences — the
// asymptotic win the high-depth regime needs. On a group state (see
// Simulator) both states hold the 2^(n−h) stored indices only, and
// every reduction over the stored amplitudes is 2^−h of the full
// state's, so it is scaled by 2^h.

// GradBuffers is the reusable workspace of one adjoint gradient
// evaluation: the ket ψ's Result, whose one-rank shard also holds the
// cost-weighted bra λ on SoA, and Serial's λ vector beside it. Allocate
// once per goroutine with NewGradBuffers and reuse across arbitrarily
// many SimulateQAOAGradInto calls; the first evaluation allocates λ,
// and after warm-up a gradient evaluation performs zero state-buffer
// allocations. A GradBuffers must not be shared by concurrent
// evaluations — give each worker its own, as each Workspace holds one.
type GradBuffers struct {
	psi *Result
	lam statevec.Vec
}

// NewGradBuffers allocates a gradient workspace sized for this
// simulator's backend.
func (s *Simulator) NewGradBuffers() *GradBuffers {
	return &GradBuffers{psi: s.NewResult()}
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
// same backend, precision and stored size; its previous contents are
// overwritten. On return, w's ψ buffer no longer holds the final state
// — callers needing the state should run SimulateQAOAInto separately.
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
// (its symmetric projection on a group state) rather than Ĉ|ψ_p⟩;
// every per-layer reduction still runs against the evolution diagonal,
// because that is the generator the γ angles multiply. The light-cone
// backend uses this with obs = Z_uZ_v on a cone's root edge while
// evolving under the cone's full MaxCut cost. obs must have length
// 2^n; storage contracts match SimulateQAOAGradInto.
func (s *Simulator) SimulateQAOAGradObsInto(w *GradBuffers, gamma, beta, obs, gradGamma, gradBeta []float64) (float64, error) {
	if len(obs) != 1<<uint(s.n) {
		return 0, fmt.Errorf("%w: %d, want 2^%d = %d", ErrObservableLength, len(obs), s.n, 1<<uint(s.n))
	}
	return s.adjoint(w, gamma, beta, obs, gradGamma, gradBeta)
}

// adjoint is the shared gradient loop: forward pass, the energy, then
// the shard's adjoint (Serial's on the complex128 reference).
func (s *Simulator) adjoint(w *GradBuffers, gamma, beta, obs, gradGamma, gradBeta []float64) (float64, error) {
	if len(gamma) != len(beta) {
		return 0, fmt.Errorf("core: len(gamma)=%d != len(beta)=%d", len(gamma), len(beta))
	}
	if len(gradGamma) != len(gamma) || len(gradBeta) != len(beta) {
		return 0, fmt.Errorf("core: gradient storage lengths (%d, %d) do not match depth p=%d",
			len(gradGamma), len(gradBeta), len(gamma))
	}
	if w == nil || w.psi == nil {
		return 0, fmt.Errorf("core: nil GradBuffers; use NewGradBuffers")
	}
	if err := s.SimulateQAOAInto(w.psi, gamma, beta); err != nil {
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
	if s.serial == nil {
		// A one-rank shard calls no collective, so it cannot fail.
		_ = w.psi.st.Adjoint(nil, gamma, beta, obs, gradGamma, gradBeta)
		return energy, nil
	}
	if len(w.lam) != len(w.psi.vec) {
		w.lam = statevec.New(s.n)
	}
	s.serial.adjoint(w.lam, w.psi.vec, gamma, beta, obs, gradGamma, gradBeta)
	return energy, nil
}
