package core

import (
	"math"

	"qokit/internal/statevec"
)

// serialArm is BackendSerial: the portable complex128 reference, which
// runs straight-line loops over all 2^n amplitudes — a phase pass, then
// Algorithm 2's per-qubit sweep or the xy edges, and in reverse one
// joint pass per qubit or edge and one phase pass. It stores the full
// state, so it reads all 2^n cost entries (the full form's own float64
// entries, else an expansion of its codes), and keeps the initial
// vector (nil for |+⟩).
type serialArm struct {
	s       *Simulator
	diag    []float64
	initial statevec.Vec
}

func newSerialArm(s *Simulator) *serialArm {
	a := &serialArm{s: s, diag: s.eng.Form().Diag}
	if a.diag == nil {
		a.diag = s.eng.Form().Expand()
	}
	if s.opts.InitialState != nil || s.opts.Mixer != MixerX {
		a.initial = s.InitialState()
	}
	return a
}

// reset overwrites v with the initial state without allocating: the
// |+⟩ start writes its one amplitude 1/√2^n into every entry.
func (a *serialArm) reset(v statevec.Vec) {
	if a.initial != nil {
		copy(v, a.initial)
		return
	}
	amp := complex(1/math.Sqrt(float64(uint64(1)<<uint(a.s.n))), 0)
	for i := range v {
		v[i] = amp
	}
}

// layer applies one layer e^{−iβM}·e^{−iγĈ} to v.
func (a *serialArm) layer(v statevec.Vec, gamma, beta float64) {
	statevec.ApplyPhase(v, statevec.Phase{Diag: a.diag, Gamma: gamma})
	if a.s.opts.Mixer == MixerX {
		statevec.ApplyUniformRX(v, beta)
		return
	}
	for _, e := range a.s.eng.Config().Edges {
		statevec.ApplyXY(v, e.U, e.V, beta)
	}
}

// adjoint seeds λ = obs⊙ψ (the cost for a nil obs) and walks λ and ψ
// back through the layers, writing ∂/∂γ_ℓ and ∂/∂β_ℓ.
func (a *serialArm) adjoint(lam, psi statevec.Vec, gamma, beta, obs, gradGamma, gradBeta []float64) {
	copy(lam, psi)
	if obs == nil {
		obs = a.diag
	}
	statevec.MulDiag(lam, obs)
	for l := len(gamma) - 1; l >= 0; l-- {
		dBeta := a.reverseMixer(lam, psi, beta[l])
		// The phase undo is skipped on the last step, where no earlier
		// derivative needs the states.
		dGamma := statevec.ReversePhase(lam, psi, statevec.Phase{Diag: a.diag, Gamma: gamma[l]}, l > 0)
		gradBeta[l], gradGamma[l] = 2*dBeta, 2*dGamma
	}
}

// reverseMixer undoes the layer's mixer on both states and returns
// Im ⟨λ|M|ψ⟩ for the post-mixer pair: per qubit for the x mixer, where
// each qubit's term commutes with every RX factor, so the per-qubit
// joint passes read it at any point of the undo; per edge for the
// Trotterized xy mixers, whose edge factors do not commute, so the
// edges are undone in reverse application order, each reading its own
// term.
func (a *serialArm) reverseMixer(lam, psi statevec.Vec, beta float64) float64 {
	var d float64
	if a.s.opts.Mixer == MixerX {
		for q := 0; q < a.s.n; q++ {
			d += statevec.ReverseRX(lam, psi, q, beta)
		}
		return d
	}
	edges := a.s.eng.Config().Edges
	for k := len(edges) - 1; k >= 0; k-- {
		d += statevec.ReverseXY(lam, psi, edges[k].U, edges[k].V, beta)
	}
	return d
}
