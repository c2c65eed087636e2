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
// table read or sincos per amplitude. ReverseXY and ReversePhase come
// in the package's four flavours (serial and worker-pool complex128,
// SoA, SoA32 — the last accumulating in float64); ReverseRX is
// complex128 only, because the split layouts run a whole x-mixer
// reverse step, phase included, as one tiled kernel
// (ReverseUniformRX, tiled.go) in 2–3 cache-sized passes instead of
// n + 1 full ones. All of them apply the same rotation arithmetic as
// the forward kernels at the negated angle.
//
// The standalone complex128 reductions below (ImDotDiag, ImDotXAll,
// ImDotXRange, ImDotXY) are the references the tiled, mirror, fused and
// costvec tests check the kernels against. The distributed engine runs
// the split-layout kernels on its shards and splits the mixer
// derivative at the shard boundary with ReverseRXRangePlanes.

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
	checkRange("ImDotXRange", lam.NumQubits(), lo, hi)
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
func (s *SoA) MulDiag(p *Pool, diag []float64) { MulDiagPlanes(p, s.Re, s.Im, Phase{Diag: diag}) }

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
func (s *SoA32) MulDiag(p *Pool, diag []float64) { MulDiagPlanes(p, s.Re, s.Im, Phase{Diag: diag}) }

// MulDiagPlanes multiplies amplitude x of split planes by its cost C_x
// in place, ψ ← Ĉ|ψ⟩ for the cost source of ph (Gamma and Tab are not
// read): the product is formed in float64 and rounded once on store.
func MulDiagPlanes[T Float](p *Pool, re, im []T, ph Phase) {
	ph.check("MulDiag", len(re))
	if diag := ph.Diag; diag != nil {
		p.Run(len(re), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				re[i] = T(float64(re[i]) * diag[i])
				im[i] = T(float64(im[i]) * diag[i])
			}
		})
		return
	}
	codes, lmin, scale := ph.Codes, ph.Min, ph.Scale
	p.Run(len(re), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := lmin + scale*float64(codes[i])
			re[i] = T(float64(re[i]) * c)
			im[i] = T(float64(im[i]) * c)
		}
	})
}

// ExpectationPlanes returns Σ_x C_x (re_x² + im_x²) for the cost source
// of ph (Gamma and Tab are not read), accumulated in float64.
func ExpectationPlanes[T Float](p *Pool, re, im []T, ph Phase) float64 {
	ph.check("Expectation", len(re))
	if diag := ph.Diag; diag != nil {
		return p.Reduce(len(re), func(lo, hi int) float64 {
			var acc float64
			for i := lo; i < hi; i++ {
				r, m := float64(re[i]), float64(im[i])
				acc += diag[i] * (r*r + m*m)
			}
			return acc
		})
	}
	codes, lmin, scale := ph.Codes, ph.Min, ph.Scale
	return p.Reduce(len(re), func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			r, m := float64(re[i]), float64(im[i])
			acc += (lmin + scale*float64(codes[i])) * (r*r + m*m)
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

// ReverseXY is the split-layout joint xy reverse step with s as λ.
func (s *SoA) ReverseXY(p *Pool, psi *SoA, i, j int, beta float64) float64 {
	return ReverseXYPlanes(p, s.Re, s.Im, psi.Re, psi.Im, i, j, beta)
}

// ReverseXY is the single-precision joint xy reverse step with s as λ,
// accumulating in float64.
func (s *SoA32) ReverseXY(p *Pool, psi *SoA32, i, j int, beta float64) float64 {
	return ReverseXYPlanes(p, s.Re, s.Im, psi.Re, psi.Im, i, j, beta)
}

// ReverseXYPlanes is the joint xy reverse step on split planes with
// (lr, li) as λ, the kernel behind SoA.ReverseXY and SoA32.ReverseXY.
func ReverseXYPlanes[T Float](p *Pool, lr, li, pr, pi []T, i, j int, beta float64) float64 {
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
	return ReversePhasePlanes(p, s.Re, s.Im, psi.Re, psi.Im, ph, undo)
}

// ReversePhase is the single-precision joint phase reverse step with s
// as λ: factors in float64 rounded once, reduction in float64.
func (s *SoA32) ReversePhase(p *Pool, psi *SoA32, ph Phase, undo bool) float64 {
	return ReversePhasePlanes(p, s.Re, s.Im, psi.Re, psi.Im, ph, undo)
}

// ReversePhasePlanes is the joint phase reverse step on split planes
// with (lr, li) as λ, the kernel behind SoA.ReversePhase and
// SoA32.ReversePhase.
func ReversePhasePlanes[T Float](p *Pool, lr, li, pr, pi []T, ph Phase, undo bool) float64 {
	checkPair("ReversePhase", len(lr), len(pr))
	ph.check("ReversePhase", len(lr))
	return p.Reduce(len(lr), func(lo, hi int) float64 {
		return reversePhaseRangePlanes(lr, li, pr, pi, ph, undo, lo, hi)
	})
}

// reversePhaseRangePlanes returns the share of Im ⟨λ|Ĉ|ψ⟩ of the
// amplitudes [lo, hi) and, when undo is set, undoes the phase on them
// in both states. Each source and mode runs its own loop, so no loop
// tests undo or the source per amplitude.
func reversePhaseRangePlanes[T Float](lr, li, pr, pi []T, ph Phase, undo bool, lo, hi int) float64 {
	diag, gamma, codes, tab := ph.Diag, ph.Gamma, ph.Codes, ph.Tab
	if diag == nil {
		return reversePhaseCodesPlanes(lr, li, pr, pi, ph, undo, lo, hi)
	}
	var acc float64
	switch {
	case !undo:
		for i := lo; i < hi; i++ {
			acc += diag[i] * (float64(lr[i])*float64(pi[i]) - float64(li[i])*float64(pr[i]))
		}
	case codes != nil:
		for i := lo; i < hi; i++ {
			a, b, c, d := lr[i], li[i], pr[i], pi[i]
			acc += diag[i] * (float64(a)*float64(d) - float64(b)*float64(c))
			f := tab[codes[i]]
			undoPhase(lr, li, pr, pi, i, a, b, c, d, T(imag(f)), T(real(f)))
		}
	default:
		for i := lo; i < hi; i++ {
			a, b, c, d := lr[i], li[i], pr[i], pi[i]
			acc += diag[i] * (float64(a)*float64(d) - float64(b)*float64(c))
			sn, cs := math.Sincos(-gamma * diag[i])
			undoPhase(lr, li, pr, pi, i, a, b, c, d, T(sn), T(cs))
		}
	}
	return acc
}

// reversePhaseCodesPlanes is reversePhaseRangePlanes for a codes-only
// source: the reduction reads level Min + Scale·code and the undo the
// table, the same values and arithmetic as a Diag source on that grid.
func reversePhaseCodesPlanes[T Float](lr, li, pr, pi []T, ph Phase, undo bool, lo, hi int) float64 {
	codes, tab, lmin, scale := ph.Codes, ph.Tab, ph.Min, ph.Scale
	var acc float64
	if !undo {
		for i := lo; i < hi; i++ {
			acc += (lmin + scale*float64(codes[i])) * (float64(lr[i])*float64(pi[i]) - float64(li[i])*float64(pr[i]))
		}
		return acc
	}
	for i := lo; i < hi; i++ {
		a, b, c, d := lr[i], li[i], pr[i], pi[i]
		acc += (lmin + scale*float64(codes[i])) * (float64(a)*float64(d) - float64(b)*float64(c))
		f := tab[codes[i]]
		undoPhase(lr, li, pr, pi, i, a, b, c, d, T(imag(f)), T(real(f)))
	}
	return acc
}

// undoPhase multiplies amplitude i of λ (lr, li) and ψ (pr, pi), read
// as (a, b) and (c, d), by the conjugate phase factor cs − i·sn.
func undoPhase[T Float](lr, li, pr, pi []T, i int, a, b, c, d, sn, cs T) {
	lr[i] = a*cs + b*sn
	li[i] = b*cs - a*sn
	pr[i] = c*cs + d*sn
	pi[i] = d*cs - c*sn
}
