package shard

import (
	"qokit/internal/cluster"
	"qokit/internal/statevec"
)

// This file holds the adjoint-mode gradient of one shard: the exact
// ∂E/∂γ_ℓ and ∂E/∂β_ℓ of E = ⟨γ,β|obs|γ,β⟩ for the cost of about one
// more evolution. Writing the evolution as |ψ_p⟩ = V_p⋯V_1|s⟩ with
// V_ℓ = B(β_ℓ)G(γ_ℓ), the bra is seeded λ = obs⊙ψ_p (the cost Ĉ by
// default), and walking the layers backwards
//
//	∂E/∂β_ℓ = 2·Im ⟨λ|M|ψ⟩          (Σ_q X_q for the x mixer, per
//	                                 edge for the Trotterized xy ones)
//	∂E/∂γ_ℓ = 2·Im ⟨λ|Ĉ|ψ⟩          (after undoing the mixer)
//
// while both states go back through the exact inverses B(−β_ℓ), G(−γ_ℓ).
// Each generator commutes with its own factor of the layer, so the
// joint reverse kernels read each derivative off the amplitudes they are
// undoing. For the x mixer one kernel (statevec.ReverseXPlanes) runs
// the step in the Walsh basis, where Σ_q X_q is the diagonal
// n − 2w(y): it reads all of ∂E/∂β off that diagonal, undoes the mixer
// there, and reads and undoes the phase in its last pass. A group
// state's pivots are parities of the diagonal (Engine.walsh), so the
// step runs no pivot pass and no relabel. At k > 0 the kernel runs its
// local passes, one plain all-to-all of both states, the passes over
// the swapped-in qubits with the diagonal, and the all-to-all back: each
// state crosses the all-to-all twice, so a gradient moves 3× the
// forward traffic. Every reduction over the stored amplitudes of a
// group state is 2^−h of the full state's, so it is scaled by 2^h.

// Adjoint runs the adjoint gradient on the evolved ψ (see Shard); obs,
// when set, has all 2^n entries. It fails only in a collective, at
// k > 0. The phase undo is skipped on the last step, where no earlier
// derivative needs the states, so that step needs no table.
func (s *State[T]) Adjoint(c *cluster.Comm, gamma, beta, obs, gradGamma, gradBeta []float64) error {
	e := s.e
	if s.lam.Re == nil {
		s.lam = newPlanes[T](e.size)
		if e.cfg.XY && e.k > 0 {
			s.recvLam = newPlanes[T](e.size)
		}
	}
	s.seed(obs)
	scale := 2 * e.Weight()
	for l := len(gamma) - 1; l >= 0; l-- {
		undo := l > 0
		var tab []complex128
		if undo {
			tab = s.tab
		}
		dBeta, dGamma, err := s.reverse(c, e.Phase(s.rank, gamma[l], tab), beta[l], undo)
		if err != nil {
			return err
		}
		gradGamma[l], gradBeta[l] = scale*dGamma, scale*dBeta
	}
	return nil
}

// seed sets λ = obs⊙ψ without allocating, with the cost for a nil obs:
// a copy and a multiply by the rank's cost window, which a group
// state's cost already is on every stored index. A caller's full-length
// obs on a group state takes one pass of seedGroup, which reads each
// orbit entry of obs on the fly.
func (s *State[T]) seed(obs []float64) {
	e, lam, psi := s.e, s.lam, s.psi
	pool, group := e.cfg.Pool, e.cfg.Sym.Group
	if obs != nil && len(group) > 1 {
		seedGroup(pool, lam, psi, obs, s.cost.offset, group)
		return
	}
	copy(lam.Re, psi.Re)
	copy(lam.Im, psi.Im)
	ph := e.Phase(s.rank, 0, nil)
	if obs != nil {
		ph = statevec.Phase{Diag: obs[s.cost.offset : s.cost.offset+uint64(e.size)]}
	}
	statevec.MulDiagPlanes(pool, lam.Re, lam.Im, ph)
}

// reverse walks ψ and λ back through one layer and returns this rank's
// shares of Im ⟨λ|M|ψ⟩ and Im ⟨λ|Ĉ|ψ⟩ over its stored amplitudes,
// undoing the phase only when undo is set.
func (s *State[T]) reverse(c *cluster.Comm, ph statevec.Phase, beta float64, undo bool) (dBeta, dGamma float64, err error) {
	e, psi, lam := s.e, s.psi, s.lam
	pool := e.cfg.Pool
	if e.cfg.XY {
		if dBeta, err = s.reverseXY(c, beta); err != nil {
			return 0, 0, err
		}
		return dBeta, statevec.ReversePhasePlanes(pool, lam.Re, lam.Im, psi.Re, psi.Im, ph, undo), nil
	}
	var swap func() error
	if e.k > 0 {
		swap = func() error { return alltoall(c, psi, lam) }
	}
	return statevec.ReverseXPlanes(pool, lam.Re, lam.Im, psi.Re, psi.Im, beta, e.walsh(s.rank), ph, undo, swap)
}

// orbitSum returns Σ_{g∈group} obs[i ⊕ g], summed pairwise in group
// order: obs[i] + obs[i ⊕ g₁] on the half state, and exactly 2^h·obs[i]
// for an obs the group leaves unchanged.
func orbitSum(obs []float64, i uint64, group []uint64) float64 {
	if len(group) == 1 {
		return obs[i^group[0]]
	}
	half := len(group) / 2
	return orbitSum(obs, i, group[:half]) + orbitSum(obs, i, group[half:])
}

// seedGroup sets λ_i = ψ_i·Σ_g obs_(x⊕g)/2^h, x = offset + i, on a group
// state pair: the symmetric projection of obs⊙ψ, which is exact for any
// obs because ψ is symmetric, and equals obs_x·ψ_i bitwise for an obs
// the group leaves unchanged.
func seedGroup[T statevec.Float](pool *statevec.Pool, lam, psi Planes[T], obs []float64, offset uint64, group []uint64) {
	pool.Run(len(lam.Re), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w := orbitSum(obs, offset+uint64(i), group) / float64(len(group))
			lam.Re[i] = T(float64(psi.Re[i]) * w)
			lam.Im[i] = T(float64(psi.Im[i]) * w)
		}
	})
}

// expectGroup returns a group state's share of ⟨obs⟩,
// Σ_i |ψ_i|²·Σ_g obs_(x⊕g), for a full-length diagonal obs, accumulated
// in float64.
func expectGroup[T statevec.Float](pool *statevec.Pool, psi Planes[T], obs []float64, offset uint64, group []uint64) float64 {
	re, im := psi.Re, psi.Im
	return pool.Reduce(len(re), func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			r, m := float64(re[i]), float64(im[i])
			acc += orbitSum(obs, offset+uint64(i), group) * (r*r + m*m)
		}
		return acc
	})
}
