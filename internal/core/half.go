package core

import "qokit/internal/statevec"

// This file holds the half state of flip-symmetric costs (see
// Simulator). With C(x) = C(x̄), the |+⟩ start and the x mixer, every
// layer commutes with X^⊗n, so ψ(x) = ψ(x̄) after every layer, and the
// adjoint's bra λ = Ĉψ keeps the same symmetry. A half state stores the
// full state's amplitude values at the representatives x < 2^(n−1),
// so ‖ψ_half‖² = ½ and every scale factor is an exact 2.
//
// Qubits 0…n−2 map representatives to representatives, so the tiled
// forward layer and reverse step run on the half planes unchanged, as
// an (n−1)-qubit state, with the phase read from the first halves of
// the diagonal and the level codes. Qubit n−1 pairs amplitude i with
// its mirror 2^(n−1)−1−i (statevec's ApplyMirrorRX and
// ReverseMirrorRX): a forward layer is the tiled layer, then one mirror
// pass; a reverse step is the mirror reverse, then the tiled reverse,
// whose last pass reads and undoes the phase after every RX is undone.

// storedQubits returns the qubit count of the stored state: n, or n−1
// on a half state.
func (s *Simulator) storedQubits() int {
	if s.half {
		return s.n - 1
	}
	return s.n
}

// stored returns the number of amplitudes a Result stores.
func (s *Simulator) stored() int { return 1 << uint(s.storedQubits()) }

// weight is the number of basis states each stored amplitude stands
// for: 2 on a half state, else 1. Energies, norms and gradient
// reductions over the stored amplitudes scale by it, exactly.
func (s *Simulator) weight() float64 {
	if s.half {
		return 2
	}
	return 1
}

// rep returns the stored index of basis state x: its complement when
// x is not a representative of a half state, else x itself.
func (s *Simulator) rep(x uint64) uint64 {
	if s.half && x >= uint64(s.stored()) {
		return x ^ (1<<uint(s.n) - 1)
	}
	return x
}

// mirrorFill completes a vector over all 2^n basis states from its
// lower half: entry x ≥ 2^(n−1) takes the value of its complement.
func mirrorFill[E any](v []E) {
	last := len(v) - 1
	for i, e := range v[:len(v)/2] {
		v[last-i] = e
	}
}

// planesInto writes split planes into the first len(re) entries of v.
func planesInto[T ~float32 | ~float64](v statevec.Vec, re, im []T) {
	for i := range re {
		v[i] = complex(float64(re[i]), float64(im[i]))
	}
}

// expectHalf returns ⟨obs⟩ of a half state, Σ_r |ψ_r|²·(obs_r + obs_r̄),
// for a full-length diagonal obs, accumulated in float64. For a
// symmetric obs the sum is exactly twice Σ_r obs_r|ψ_r|².
func expectHalf[T ~float32 | ~float64](p *statevec.Pool, re, im []T, obs []float64) float64 {
	mask := len(obs) - 1
	return p.Reduce(len(re), func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			r, m := float64(re[i]), float64(im[i])
			acc += (obs[i] + obs[i^mask]) * (r*r + m*m)
		}
		return acc
	})
}

// seedHalf sets λ_r = ψ_r·(obs_r + obs_r̄)/2 on a half-state pair: the
// symmetric projection of obs⊙ψ, which is exact for any obs because ψ
// is symmetric, and equals obs_r·ψ_r bitwise for a symmetric obs. The
// complement entry is read on the fly, so nothing is allocated beyond
// the kernel launch.
func seedHalf[T ~float32 | ~float64](p *statevec.Pool, lr, li, pr, pi []T, obs []float64) {
	mask := len(obs) - 1
	p.Run(len(lr), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w := (obs[i] + obs[i^mask]) / 2
			lr[i] = T(float64(pr[i]) * w)
			li[i] = T(float64(pi[i]) * w)
		}
	})
}

// mirrorRX applies qubit n−1's RX(β) to a half state; a no-op on the
// full state, where the tiled kernels cover every qubit.
func (s *Simulator) mirrorRX(r *Result, beta float64) {
	switch {
	case !s.half:
	case r.soa32 != nil:
		r.soa32.ApplyMirrorRX(s.pool, beta)
	default:
		r.soa.ApplyMirrorRX(s.pool, beta)
	}
}

// reverseMirrorRX runs qubit n−1's joint reverse step on a half-state
// pair and returns its Im ⟨λ|X_(n−1)|ψ⟩ over the stored amplitudes; 0
// on the full state.
func (s *Simulator) reverseMirrorRX(w *GradBuffers, beta float64) float64 {
	switch {
	case !s.half:
		return 0
	case w.lam.soa32 != nil:
		return w.lam.soa32.ReverseMirrorRX(s.pool, w.psi.soa32, beta)
	default:
		return w.lam.soa.ReverseMirrorRX(s.pool, w.psi.soa, beta)
	}
}
