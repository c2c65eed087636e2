package statevec

import (
	"fmt"
	"math"
)

// This file holds the kernels behind the adjoint-mode gradient engine
// (internal/core.SimulateQAOAGrad). The adjoint method walks the QAOA
// circuit backwards with two states — the ket ψ and the cost-weighted
// bra λ = Ĉ|ψ⟩ — and reads every parameter derivative off a reduction
// of the pair:
//
//	∂E/∂γ_ℓ = 2·Im ⟨λ|Ĉ|ψ⟩          (against the cost diagonal)
//	∂E/∂β_ℓ = 2·Σ_q Im ⟨λ|X_q|ψ⟩    (transverse-field mixer)
//	∂E/∂β_ℓ = 2·Σ_e Im ⟨λ|H_e|ψ⟩    (per edge, xy mixers)
//
// Each generator commutes with its own factor of the layer, so the
// reduction can be read off the amplitudes while that factor is being
// undone. The Reverse kernels do exactly that: one pass per qubit
// (ReverseRX) or per edge (ReverseXY) adds up the mixer derivative from
// the amplitude pair it already holds and applies the inverse rotation
// to both states, and one elementwise pass (ReversePhase) adds up the
// phase derivative and undoes the phase on both states from a single
// table read or sincos per amplitude. A reverse layer therefore costs
// about two forward mixer sweeps of memory traffic and no separate
// reduction passes. The Reverse kernels come in the package's four
// flavours (serial and worker-pool complex128, SoA, SoA32 — the last
// accumulating in float64); they apply the same rotation arithmetic as
// the forward kernels at the negated angle.
//
// The standalone reductions below (ImDotDiag, ImDotXAll, ImDotXRange,
// ImDotXY, in serial complex128 and SoA32) serve the distributed
// engine, which splits the mixer derivative at the shard boundary.

// MulDiag multiplies amplitude x by the real scalar diag_x in place:
// ψ ← Ĉ|ψ⟩ for a diagonal observable, the "cost-weighted" seed of the
// adjoint reverse pass. It panics on length mismatch.
func MulDiag(v Vec, diag []float64) {
	if len(v) != len(diag) {
		panic(fmt.Sprintf("statevec: MulDiag length mismatch %d vs %d", len(v), len(diag)))
	}
	for i := range v {
		v[i] *= complex(diag[i], 0)
	}
}

// MulDiag is the pool version of the diagonal-observable multiply.
func (p *Pool) MulDiag(v Vec, diag []float64) {
	if len(v) != len(diag) {
		panic(fmt.Sprintf("statevec: MulDiag length mismatch %d vs %d", len(v), len(diag)))
	}
	p.Run(len(v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i] *= complex(diag[i], 0)
		}
	})
}

// ImDotDiag returns Σ_x diag_x · Im(conj(lam_x)·psi_x) = Im ⟨λ|Ĉ|ψ⟩:
// the phase-operator derivative reduction. It panics on length
// mismatch.
func ImDotDiag(lam, psi Vec, diag []float64) float64 {
	if len(lam) != len(psi) || len(lam) != len(diag) {
		panic(fmt.Sprintf("statevec: ImDotDiag length mismatch %d/%d/%d", len(lam), len(psi), len(diag)))
	}
	var s float64
	for i := range lam {
		s += diag[i] * (real(lam[i])*imag(psi[i]) - imag(lam[i])*real(psi[i]))
	}
	return s
}

// ImDotXAll returns Σ_q Im ⟨λ|X_q|ψ⟩ — the whole transverse-field
// mixer derivative in one pass over the pair, with the qubit loop
// innermost so the reduction costs one kernel launch instead of n.
func ImDotXAll(lam, psi Vec) float64 {
	if len(lam) != len(psi) {
		panic(fmt.Sprintf("statevec: ImDotXAll length mismatch %d vs %d", len(lam), len(psi)))
	}
	n := lam.NumQubits()
	var s float64
	for i := range lam {
		lr, li := real(lam[i]), imag(lam[i])
		for q := 0; q < n; q++ {
			j := i ^ (1 << uint(q))
			s += lr*imag(psi[j]) - li*real(psi[j])
		}
	}
	return s
}

// ImDotXRange returns Σ_{q∈[lo,hi)} Im ⟨λ|X_q|ψ⟩ — ImDotXAll
// restricted to a contiguous qubit range. The distributed adjoint
// gradient uses it to split the transverse-field mixer derivative at
// the shard boundary: each rank reduces its local qubits with
// ImDotXAll, transposes, and reduces the k global qubits (then local,
// at the top of the slice) with this kernel. Both reductions are
// invariant under the commuting RX undo sweeps, so the split sums to
// the single-node value exactly.
func ImDotXRange(lam, psi Vec, lo, hi int) float64 {
	if len(lam) != len(psi) {
		panic(fmt.Sprintf("statevec: ImDotXRange length mismatch %d vs %d", len(lam), len(psi)))
	}
	n := lam.NumQubits()
	if lo < 0 || hi > n || lo > hi {
		panic(fmt.Sprintf("statevec: ImDotXRange qubit range [%d,%d) invalid for n=%d", lo, hi, n))
	}
	var s float64
	for i := range lam {
		lr, li := real(lam[i]), imag(lam[i])
		for q := lo; q < hi; q++ {
			j := i ^ (1 << uint(q))
			s += lr*imag(psi[j]) - li*real(psi[j])
		}
	}
	return s
}

// ImDotXY returns Im ⟨λ|H_e|ψ⟩ for H_e = (X_iX_j + Y_iY_j)/2, which
// swaps each (|…1_i…0_j…⟩, |…0_i…1_j…⟩) amplitude pair and annihilates
// the rest — the per-edge xy-mixer derivative reduction.
func ImDotXY(lam, psi Vec, i, j int) float64 {
	if i == j {
		panic("statevec: ImDotXY requires distinct qubits")
	}
	n := lam.NumQubits()
	if i < 0 || i >= n || j < 0 || j >= n {
		panic(fmt.Sprintf("statevec: ImDotXY qubits (%d,%d) out of range for n=%d", i, j, n))
	}
	if len(lam) != len(psi) {
		panic(fmt.Sprintf("statevec: ImDotXY length mismatch %d vs %d", len(lam), len(psi)))
	}
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	quarter := len(lam) >> 2
	maskI, maskJ := 1<<uint(i), 1<<uint(j)
	var s float64
	for t := 0; t < quarter; t++ {
		base := expand2(t, lo, hi)
		xa := base | maskI
		xb := base | maskJ
		s += real(lam[xa])*imag(psi[xb]) - imag(lam[xa])*real(psi[xb])
		s += real(lam[xb])*imag(psi[xa]) - imag(lam[xb])*real(psi[xa])
	}
	return s
}

// Copy overwrites s with src without allocating; it panics on length
// mismatch. The adjoint reverse pass uses it to seed λ from ψ.
func (s *SoA) Copy(src *SoA) {
	if len(s.Re) != len(src.Re) {
		panic(fmt.Sprintf("statevec: Copy length mismatch %d vs %d", len(s.Re), len(src.Re)))
	}
	copy(s.Re, src.Re)
	copy(s.Im, src.Im)
}

// MulDiag multiplies amplitude x by diag_x in place (SoA layout: one
// real scale per component slice).
func (s *SoA) MulDiag(p *Pool, diag []float64) {
	if len(s.Re) != len(diag) {
		panic(fmt.Sprintf("statevec: MulDiag length mismatch %d vs %d", len(s.Re), len(diag)))
	}
	re, im := s.Re, s.Im
	p.Run(len(re), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			re[i] *= diag[i]
			im[i] *= diag[i]
		}
	})
}

// Copy overwrites s with src without allocating; it panics on length
// mismatch.
func (s *SoA32) Copy(src *SoA32) {
	if len(s.Re) != len(src.Re) {
		panic(fmt.Sprintf("statevec: Copy length mismatch %d vs %d", len(s.Re), len(src.Re)))
	}
	copy(s.Re, src.Re)
	copy(s.Im, src.Im)
}

// MulDiag multiplies amplitude x by diag_x in place. The product is
// formed in float64 and rounded once on store.
func (s *SoA32) MulDiag(p *Pool, diag []float64) {
	if len(s.Re) != len(diag) {
		panic(fmt.Sprintf("statevec: MulDiag length mismatch %d vs %d", len(s.Re), len(diag)))
	}
	re, im := s.Re, s.Im
	p.Run(len(re), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			re[i] = float32(float64(re[i]) * diag[i])
			im[i] = float32(float64(im[i]) * diag[i])
		}
	})
}

// ImDotDiag returns Im ⟨λ|Ĉ|ψ⟩ with s as λ, accumulated in float64.
func (s *SoA32) ImDotDiag(p *Pool, psi *SoA32, diag []float64) float64 {
	if len(s.Re) != len(psi.Re) || len(s.Re) != len(diag) {
		panic(fmt.Sprintf("statevec: ImDotDiag length mismatch %d/%d/%d", len(s.Re), len(psi.Re), len(diag)))
	}
	lr, li := s.Re, s.Im
	pr, pi := psi.Re, psi.Im
	return p.Reduce(len(lr), func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			acc += diag[i] * (float64(lr[i])*float64(pi[i]) - float64(li[i])*float64(pr[i]))
		}
		return acc
	})
}

// ImDotXAll returns Σ_q Im ⟨λ|X_q|ψ⟩ in one fused pass with s as λ,
// accumulated in float64.
func (s *SoA32) ImDotXAll(p *Pool, psi *SoA32) float64 {
	if len(s.Re) != len(psi.Re) {
		panic(fmt.Sprintf("statevec: ImDotXAll length mismatch %d vs %d", len(s.Re), len(psi.Re)))
	}
	n := s.NumQubits()
	lr, li := s.Re, s.Im
	pr, pi := psi.Re, psi.Im
	return p.Reduce(len(lr), func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			r, m := float64(lr[i]), float64(li[i])
			for q := 0; q < n; q++ {
				j := i ^ (1 << uint(q))
				acc += r*float64(pi[j]) - m*float64(pr[j])
			}
		}
		return acc
	})
}

// ImDotXRange returns Σ_{q∈[lo,hi)} Im ⟨λ|X_q|ψ⟩ with s as λ,
// accumulated in float64 — the SoA32 counterpart of the complex128
// ImDotXRange the distributed adjoint gradient splits the transverse-
// field mixer derivative with: local qubits reduce with ImDotXAll in
// the sharded layout, the k global qubits reduce with this kernel in
// the transposed layout.
func (s *SoA32) ImDotXRange(p *Pool, psi *SoA32, lo, hi int) float64 {
	if len(s.Re) != len(psi.Re) {
		panic(fmt.Sprintf("statevec: ImDotXRange length mismatch %d vs %d", len(s.Re), len(psi.Re)))
	}
	n := s.NumQubits()
	if lo < 0 || hi > n || lo > hi {
		panic(fmt.Sprintf("statevec: ImDotXRange qubit range [%d,%d) invalid for n=%d", lo, hi, n))
	}
	lr, li := s.Re, s.Im
	pr, pi := psi.Re, psi.Im
	return p.Reduce(len(lr), func(from, to int) float64 {
		var acc float64
		for i := from; i < to; i++ {
			r, m := float64(lr[i]), float64(li[i])
			for q := lo; q < hi; q++ {
				j := i ^ (1 << uint(q))
				acc += r*float64(pi[j]) - m*float64(pr[j])
			}
		}
		return acc
	})
}

// ImDotXY returns Im ⟨λ|H_e|ψ⟩ for the xy edge term with s as λ,
// accumulated in float64.
func (s *SoA32) ImDotXY(p *Pool, psi *SoA32, i, j int) float64 {
	if i == j {
		panic("statevec: ImDotXY requires distinct qubits")
	}
	n := s.NumQubits()
	if i < 0 || i >= n || j < 0 || j >= n {
		panic(fmt.Sprintf("statevec: ImDotXY qubits (%d,%d) out of range for n=%d", i, j, n))
	}
	if len(s.Re) != len(psi.Re) {
		panic(fmt.Sprintf("statevec: ImDotXY length mismatch %d vs %d", len(s.Re), len(psi.Re)))
	}
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	maskI, maskJ := 1<<uint(i), 1<<uint(j)
	lr, li := s.Re, s.Im
	pr, pi := psi.Re, psi.Im
	return p.Reduce(len(lr)>>2, func(from, to int) float64 {
		var acc float64
		for t := from; t < to; t++ {
			base := expand2(t, lo, hi)
			xa := base | maskI
			xb := base | maskJ
			acc += float64(lr[xa])*float64(pi[xb]) - float64(li[xa])*float64(pr[xb])
			acc += float64(lr[xb])*float64(pi[xa]) - float64(li[xb])*float64(pr[xa])
		}
		return acc
	})
}

// checkPair panics unless λ and ψ have the same length.
func checkPair(op string, lam, psi int) {
	if lam != psi {
		panic(fmt.Sprintf("statevec: %s length mismatch %d vs %d", op, lam, psi))
	}
}

// checkEdge panics unless (i, j) is a pair of distinct qubits of an
// n-qubit state, and returns them sorted.
func checkEdge(op string, n, i, j int) (lo, hi int) {
	if i == j {
		panic(fmt.Sprintf("statevec: %s requires distinct qubits", op))
	}
	if i < 0 || i >= n || j < 0 || j >= n {
		panic(fmt.Sprintf("statevec: %s qubits (%d,%d) out of range for n=%d", op, i, j, n))
	}
	if i > j {
		return j, i
	}
	return i, j
}

// ReverseRX undoes the forward ApplyRX(·, q, β) on both the bra lam and
// the ket psi and returns Im ⟨λ|X_q|ψ⟩, read off the amplitude pairs it
// rotates.
func ReverseRX(lam, psi Vec, q int, beta float64) float64 {
	checkPair("ReverseRX", len(lam), len(psi))
	checkStride(lam, q)
	s, c := math.Sincos(-beta)
	return reverseRXRange(lam, psi, q, complex(c, 0), complex(0, -s), 0, len(lam)/2)
}

// ReverseRX is the pool version of the joint RX reverse step.
func (p *Pool) ReverseRX(lam, psi Vec, q int, beta float64) float64 {
	checkPair("ReverseRX", len(lam), len(psi))
	checkStride(lam, q)
	s, c := math.Sincos(-beta)
	a, b := complex(c, 0), complex(0, -s)
	return p.Reduce(len(lam)/2, func(lo, hi int) float64 {
		return reverseRXRange(lam, psi, q, a, b, lo, hi)
	})
}

// reverseRXRange runs the joint RX reverse step over the qubit-q pairs
// t ∈ [lo, hi), rotating both states by the ApplySU2 block (a, b).
func reverseRXRange(lam, psi Vec, q int, a, b complex128, lo, hi int) float64 {
	ac, bc := conj(a), conj(b)
	stride := 1 << uint(q)
	mask := stride - 1
	var acc float64
	for t := lo; t < hi; t++ {
		l1 := (t>>uint(q))<<uint(q+1) | (t & mask)
		l2 := l1 + stride
		x1, x2 := lam[l1], lam[l2]
		y1, y2 := psi[l1], psi[l2]
		acc += real(x1)*imag(y2) - imag(x1)*real(y2) + real(x2)*imag(y1) - imag(x2)*real(y1)
		lam[l1] = a*x1 - bc*x2
		lam[l2] = b*x1 + ac*x2
		psi[l1] = a*y1 - bc*y2
		psi[l2] = b*y1 + ac*y2
	}
	return acc
}

// ReverseXY undoes the forward ApplyXY(·, i, j, β) on both states and
// returns Im ⟨λ|H_e|ψ⟩ for H_e = (X_iX_j + Y_iY_j)/2.
func ReverseXY(lam, psi Vec, i, j int, beta float64) float64 {
	checkPair("ReverseXY", len(lam), len(psi))
	checkEdge("ReverseXY", lam.NumQubits(), i, j)
	s, c := math.Sincos(-beta)
	return reverseXYRange(lam, psi, i, j, complex(c, 0), complex(0, -s), 0, len(lam)>>2)
}

// ReverseXY is the pool version of the joint xy reverse step.
func (p *Pool) ReverseXY(lam, psi Vec, i, j int, beta float64) float64 {
	checkPair("ReverseXY", len(lam), len(psi))
	checkEdge("ReverseXY", lam.NumQubits(), i, j)
	s, c := math.Sincos(-beta)
	cr, sr := complex(c, 0), complex(0, -s)
	return p.Reduce(len(lam)>>2, func(from, to int) float64 {
		return reverseXYRange(lam, psi, i, j, cr, sr, from, to)
	})
}

// reverseXYRange runs the joint xy reverse step over the packed
// quadruple indices t ∈ [from, to).
func reverseXYRange(lam, psi Vec, i, j int, c, s complex128, from, to int) float64 {
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	maskI, maskJ := 1<<uint(i), 1<<uint(j)
	var acc float64
	for t := from; t < to; t++ {
		base := expand2(t, lo, hi)
		xa := base | maskI
		xb := base | maskJ
		la, lb := lam[xa], lam[xb]
		ya, yb := psi[xa], psi[xb]
		acc += real(la)*imag(yb) - imag(la)*real(yb) + real(lb)*imag(ya) - imag(lb)*real(ya)
		lam[xa] = c*la + s*lb
		lam[xb] = s*la + c*lb
		psi[xa] = c*ya + s*yb
		psi[xb] = s*ya + c*yb
	}
	return acc
}

// ReversePhase returns Im ⟨λ|Ĉ|ψ⟩ for Ĉ = diag(ph.Diag) and, when undo
// is set, undoes the forward ApplyPhase(ph) on both states: each
// amplitude pair is multiplied by the conjugate of one factor, read
// once from the table or from one sincos.
func ReversePhase(lam, psi Vec, ph Phase, undo bool) float64 {
	checkPair("ReversePhase", len(lam), len(psi))
	ph.check("ReversePhase", len(lam))
	return reversePhaseRange(lam, psi, ph, undo, 0, len(lam))
}

// ReversePhase is the pool version of the joint phase reverse step.
func (p *Pool) ReversePhase(lam, psi Vec, ph Phase, undo bool) float64 {
	checkPair("ReversePhase", len(lam), len(psi))
	ph.check("ReversePhase", len(lam))
	return p.Reduce(len(lam), func(lo, hi int) float64 {
		return reversePhaseRange(lam, psi, ph, undo, lo, hi)
	})
}

func reversePhaseRange(lam, psi Vec, ph Phase, undo bool, lo, hi int) float64 {
	diag, gamma, codes, tab := ph.Diag, ph.Gamma, ph.Codes, ph.Tab
	var acc float64
	if !undo {
		for i := lo; i < hi; i++ {
			acc += diag[i] * (real(lam[i])*imag(psi[i]) - imag(lam[i])*real(psi[i]))
		}
		return acc
	}
	for i := lo; i < hi; i++ {
		x, y := lam[i], psi[i]
		acc += diag[i] * (real(x)*imag(y) - imag(x)*real(y))
		var f complex128
		if codes != nil {
			f = conj(tab[codes[i]])
		} else {
			s, c := math.Sincos(-gamma * diag[i])
			f = complex(c, -s)
		}
		lam[i] = x * f
		psi[i] = y * f
	}
	return acc
}

// ReverseRX is the split-layout joint RX reverse step with s as λ.
func (s *SoA) ReverseRX(p *Pool, psi *SoA, q int, beta float64) float64 {
	return reverseRXPlanes(p, s.Re, s.Im, psi.Re, psi.Im, q, beta)
}

// ReverseRX is the single-precision joint RX reverse step with s as λ,
// accumulating in float64.
func (s *SoA32) ReverseRX(p *Pool, psi *SoA32, q int, beta float64) float64 {
	return reverseRXPlanes(p, s.Re, s.Im, psi.Re, psi.Im, q, beta)
}

func reverseRXPlanes[T planeElem](p *Pool, lr, li, pr, pi []T, q int, beta float64) float64 {
	checkPair("ReverseRX", len(lr), len(pr))
	if n := numQubits(len(lr)); q < 0 || q >= n {
		panic(fmt.Sprintf("statevec: qubit %d out of range for n=%d", q, n))
	}
	sn64, cs64 := math.Sincos(-beta)
	sn, cs := T(sn64), T(cs64)
	stride := 1 << uint(q)
	mask := stride - 1
	return p.Reduce(len(lr)/2, func(lo, hi int) float64 {
		var acc float64
		for t := lo; t < hi; t++ {
			l1 := (t>>uint(q))<<uint(q+1) | (t & mask)
			l2 := l1 + stride
			a1, b1, a2, b2 := lr[l1], li[l1], lr[l2], li[l2]
			c1, d1, c2, d2 := pr[l1], pi[l1], pr[l2], pi[l2]
			acc += float64(a1)*float64(d2) - float64(b1)*float64(c2) + float64(a2)*float64(d1) - float64(b2)*float64(c1)
			lr[l1] = cs*a1 + sn*b2
			li[l1] = cs*b1 - sn*a2
			lr[l2] = cs*a2 + sn*b1
			li[l2] = cs*b2 - sn*a1
			pr[l1] = cs*c1 + sn*d2
			pi[l1] = cs*d1 - sn*c2
			pr[l2] = cs*c2 + sn*d1
			pi[l2] = cs*d2 - sn*c1
		}
		return acc
	})
}

// ReverseXY is the split-layout joint xy reverse step with s as λ.
func (s *SoA) ReverseXY(p *Pool, psi *SoA, i, j int, beta float64) float64 {
	return reverseXYPlanes(p, s.Re, s.Im, psi.Re, psi.Im, i, j, beta)
}

// ReverseXY is the single-precision joint xy reverse step with s as λ,
// accumulating in float64.
func (s *SoA32) ReverseXY(p *Pool, psi *SoA32, i, j int, beta float64) float64 {
	return reverseXYPlanes(p, s.Re, s.Im, psi.Re, psi.Im, i, j, beta)
}

func reverseXYPlanes[T planeElem](p *Pool, lr, li, pr, pi []T, i, j int, beta float64) float64 {
	checkPair("ReverseXY", len(lr), len(pr))
	lo, hi := checkEdge("ReverseXY", numQubits(len(lr)), i, j)
	sn64, cs64 := math.Sincos(-beta)
	sn, cs := T(sn64), T(cs64)
	maskI, maskJ := 1<<uint(i), 1<<uint(j)
	return p.Reduce(len(lr)>>2, func(from, to int) float64 {
		var acc float64
		for t := from; t < to; t++ {
			base := expand2(t, lo, hi)
			xa := base | maskI
			xb := base | maskJ
			ra, ia, rb, ib := lr[xa], li[xa], lr[xb], li[xb]
			ca, da, cb, db := pr[xa], pi[xa], pr[xb], pi[xb]
			acc += float64(ra)*float64(db) - float64(ia)*float64(cb) + float64(rb)*float64(da) - float64(ib)*float64(ca)
			lr[xa] = cs*ra + sn*ib
			li[xa] = cs*ia - sn*rb
			lr[xb] = cs*rb + sn*ia
			li[xb] = cs*ib - sn*ra
			pr[xa] = cs*ca + sn*db
			pi[xa] = cs*da - sn*cb
			pr[xb] = cs*cb + sn*da
			pi[xb] = cs*db - sn*ca
		}
		return acc
	})
}

// ReversePhase is the split-layout joint phase reverse step with s as λ.
func (s *SoA) ReversePhase(p *Pool, psi *SoA, ph Phase, undo bool) float64 {
	return reversePhasePlanes(p, s.Re, s.Im, psi.Re, psi.Im, ph, undo)
}

// ReversePhase is the single-precision joint phase reverse step with s
// as λ: factors in float64 rounded once, reduction in float64.
func (s *SoA32) ReversePhase(p *Pool, psi *SoA32, ph Phase, undo bool) float64 {
	return reversePhasePlanes(p, s.Re, s.Im, psi.Re, psi.Im, ph, undo)
}

func reversePhasePlanes[T planeElem](p *Pool, lr, li, pr, pi []T, ph Phase, undo bool) float64 {
	checkPair("ReversePhase", len(lr), len(pr))
	ph.check("ReversePhase", len(lr))
	diag, gamma, codes, tab := ph.Diag, ph.Gamma, ph.Codes, ph.Tab
	if !undo {
		return p.Reduce(len(lr), func(lo, hi int) float64 {
			var acc float64
			for i := lo; i < hi; i++ {
				acc += diag[i] * (float64(lr[i])*float64(pi[i]) - float64(li[i])*float64(pr[i]))
			}
			return acc
		})
	}
	return p.Reduce(len(lr), func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			a, b, c, d := lr[i], li[i], pr[i], pi[i]
			acc += diag[i] * (float64(a)*float64(d) - float64(b)*float64(c))
			var sn64, cs64 float64
			if codes != nil {
				cs64, sn64 = real(tab[codes[i]]), imag(tab[codes[i]])
			} else {
				sn64, cs64 = math.Sincos(-gamma * diag[i])
			}
			sn, cs := T(sn64), T(cs64)
			lr[i] = a*cs + b*sn
			li[i] = b*cs - a*sn
			pr[i] = c*cs + d*sn
			pi[i] = d*cs - c*sn
		}
		return acc
	})
}
