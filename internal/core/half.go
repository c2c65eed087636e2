package core

import (
	"math/bits"

	"qokit/internal/statevec"
)

// This file holds the group state of symmetric costs (see Simulator),
// which generalizes the half state of flip-symmetric ones. Let H be the
// XOR masks g with C(x ⊕ g) = C(x) for every x. With the |+⟩ start and
// the x mixer, every layer commutes with X^g for each g ∈ H, so
// ψ(x ⊕ g) = ψ(x) after every layer, and the adjoint's bra λ = Ĉψ keeps
// the same symmetry. costvec.SymmetryPivots picks h pivots in H, one
// per top qubit n−h+j, whose top h bits are that qubit's alone; their
// 2^h products form s.group, indexed by top bits: group[t] is the
// element whose top h bits are t. A group state stores the full state's
// amplitude values at the 2^(n−h) indices whose top h bits are zero, so
// ‖ψ_stored‖² = 2^−h and every scale factor is an exact power of two;
// basis state x is read at x ⊕ group[x >> (n−h)]. h = 1 with the
// complement is the half state; LABS takes h = 2.
//
// Qubits 0…n−h−1 map stored indices to stored indices, so the tiled
// forward layer and reverse step run on the stored planes unchanged,
// as an (n−h)-qubit state, with the phase read from the first 2^(n−h)
// entries of the diagonal and the level codes. Top qubit n−h+j pairs
// amplitude i with i ⊕ μ_j, μ_j = group[2^j] mod 2^(n−h) (statevec's
// ApplyMirrorRX and ReverseMirrorRX): a forward layer is the tiled
// layer, then one pass per pivot; a reverse step is the pivots'
// reverse passes, then the tiled reverse, whose last pass reads and
// undoes the phase after every RX is undone.

// groupOf returns the 2^h elements the pivots generate, indexed by
// their top h bits; {0} (the full state) for no pivots.
func groupOf(pivots []uint64) []uint64 {
	group := make([]uint64, 1<<uint(len(pivots)))
	for t := range group {
		for j, g := range pivots {
			if t>>uint(j)&1 == 1 {
				group[t] ^= g
			}
		}
	}
	return group
}

// pivots returns h, the number of top qubits the group carries.
func (s *Simulator) pivots() int { return bits.TrailingZeros(uint(len(s.group))) }

// storedQubits returns the qubit count of the stored state, n − h.
func (s *Simulator) storedQubits() int { return s.n - s.pivots() }

// stored returns the number of amplitudes a Result stores.
func (s *Simulator) stored() int { return 1 << uint(s.storedQubits()) }

// weight is the number of basis states each stored amplitude stands
// for, 2^h. Energies, norms and gradient reductions over the stored
// amplitudes scale by it, exactly.
func (s *Simulator) weight() float64 { return float64(len(s.group)) }

// rep returns the stored index of basis state x: x ⊕ g for the group
// element g that carries x's top h bits.
func (s *Simulator) rep(x uint64) uint64 { return x ^ s.group[x>>uint(s.storedQubits())] }

// groupFill completes a vector over all 2^n basis states from its
// first len(v)/len(group) entries: block t (the indices whose top bits
// are t) takes entry i ⊕ μ_t for its i-th entry.
func groupFill[E any](v []E, group []uint64) {
	size := len(v) / len(group)
	for t := 1; t < len(group); t++ {
		mu := int(group[t]) & (size - 1)
		blk := v[t*size : (t+1)*size]
		for i := range blk {
			blk[i] = v[i^mu]
		}
	}
}

// planesInto writes split planes into the first len(re) entries of v.
func planesInto[T ~float32 | ~float64](v statevec.Vec, re, im []T) {
	for i := range re {
		v[i] = complex(float64(re[i]), float64(im[i]))
	}
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

// expectGroup returns ⟨obs⟩ of a group state, Σ_i |ψ_i|²·Σ_g obs_(i⊕g),
// for a full-length diagonal obs, accumulated in float64.
func expectGroup[T ~float32 | ~float64](p *statevec.Pool, re, im []T, obs []float64, group []uint64) float64 {
	return p.Reduce(len(re), func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			r, m := float64(re[i]), float64(im[i])
			acc += orbitSum(obs, uint64(i), group) * (r*r + m*m)
		}
		return acc
	})
}

// seedGroup sets λ_i = ψ_i·Σ_g obs_(i⊕g)/2^h on a group-state pair: the
// symmetric projection of obs⊙ψ, which is exact for any obs because ψ
// is symmetric, and equals obs_i·ψ_i bitwise for an obs the group
// leaves unchanged. The orbit entries are read on the fly, so nothing
// is allocated beyond the kernel launch.
func seedGroup[T ~float32 | ~float64](p *statevec.Pool, lr, li, pr, pi []T, obs []float64, group []uint64) {
	p.Run(len(lr), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w := orbitSum(obs, uint64(i), group) / float64(len(group))
			lr[i] = T(float64(pr[i]) * w)
			li[i] = T(float64(pi[i]) * w)
		}
	})
}

// pivotMask returns μ_j, the stored-index part of pivot j's element.
func (s *Simulator) pivotMask(j int) int { return int(s.group[1<<uint(j)]) & (s.stored() - 1) }

// mirrorRX applies the top qubits' RX(β) to a group state, one pass per
// pivot; a no-op on the full state, where the tiled kernels cover every
// qubit.
func (s *Simulator) mirrorRX(r *Result, beta float64) {
	for j := 0; j < s.pivots(); j++ {
		if r.soa32 != nil {
			r.soa32.ApplyMirrorRX(s.pool, s.pivotMask(j), beta)
		} else {
			r.soa.ApplyMirrorRX(s.pool, s.pivotMask(j), beta)
		}
	}
}

// reverseMirrorRX runs the top qubits' joint reverse steps on a
// group-state pair, the last pivot first, and returns their
// Im ⟨λ|X_q|ψ⟩ over the stored amplitudes; 0 on the full state.
func (s *Simulator) reverseMirrorRX(w *GradBuffers, beta float64) float64 {
	var d float64
	for j := s.pivots() - 1; j >= 0; j-- {
		if w.lam.soa32 != nil {
			d += w.lam.soa32.ReverseMirrorRX(s.pool, w.psi.soa32, s.pivotMask(j), beta)
		} else {
			d += w.lam.soa.ReverseMirrorRX(s.pool, w.psi.soa, s.pivotMask(j), beta)
		}
	}
	return d
}
