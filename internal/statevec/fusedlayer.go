package statevec

import "math"

// This file holds the fused phase+mixer layer kernels — the tentpole
// of the kernel speed pass. A QAOA layer is one elementwise diagonal
// phase multiply followed by the transverse-field mixer sweep; run
// separately those cost two full memory traversals where the first
// mixer pass could have absorbed the phase for free. Each kernel here
// folds e^{−iγ·diag_x} into the first pass over the state (the qubit-0
// butterfly of the per-qubit sweep, or the first RX⊗RX quadruple pass
// of the F = 2 fused sweep), then finishes with the ordinary sweep
// over the remaining qubits. On the memory-bandwidth-bound sizes
// (n ≥ 20) this removes one traversal per layer.
//
// The fused kernels compute the exact arithmetic sequence of
// ApplyPhase followed by the mixer — each amplitude is phased into a
// local temporary and then rotated with the same expressions the
// unfused kernels use — so their results are bit-identical to the
// separate passes, not merely close. The phase factor comes from the
// Phase source: per-amplitude sincos, or a gather from the per-γ level
// table, which holds the same values.

// ApplyPhaseThenUniformRX applies e^{−iβΣX_i}·e^{−iγĈ} in one
// combined sweep: the phase is folded into the qubit-0 butterfly and
// qubits 1..n−1 follow as plain Algorithm 1 passes.
func ApplyPhaseThenUniformRX(v Vec, ph Phase, beta float64) {
	ph.check("ApplyPhaseThenUniformRX", len(v))
	n := v.NumQubits()
	if n == 0 {
		ApplyPhase(v, ph)
		return
	}
	s64, c64 := math.Sincos(beta)
	a, b := complex(c64, 0), complex(0, -s64)
	phaseRX0Range(v, ph, a, b, 0, len(v)/2)
	for q := 1; q < n; q++ {
		ApplySU2(v, q, a, b)
	}
}

// ApplyPhaseThenUniformRX is the pool version of the combined
// phase+mixer sweep.
func (p *Pool) ApplyPhaseThenUniformRX(v Vec, ph Phase, beta float64) {
	ph.check("ApplyPhaseThenUniformRX", len(v))
	n := v.NumQubits()
	if n == 0 {
		p.ApplyPhase(v, ph)
		return
	}
	s64, c64 := math.Sincos(beta)
	a, b := complex(c64, 0), complex(0, -s64)
	p.Run(len(v)/2, func(lo, hi int) { phaseRX0Range(v, ph, a, b, lo, hi) })
	for q := 1; q < n; q++ {
		p.ApplySU2(v, q, a, b)
	}
}

// phaseRX0Range phases the amplitude pairs (2t, 2t+1), t ∈ [lo, hi),
// and applies the qubit-0 butterfly of ApplySU2(·, 0, a, b) to them.
func phaseRX0Range(v Vec, ph Phase, a, b complex128, lo, hi int) {
	ac, bc := conj(a), conj(b)
	diag, gamma, codes, tab := ph.Diag, ph.Gamma, ph.Codes, ph.Tab
	for t := lo; t < hi; t++ {
		l1 := 2 * t
		l2 := l1 + 1
		var f1, f2 complex128
		if codes != nil {
			f1, f2 = tab[codes[l1]], tab[codes[l2]]
		} else {
			sn1, cs1 := math.Sincos(-gamma * diag[l1])
			sn2, cs2 := math.Sincos(-gamma * diag[l2])
			f1, f2 = complex(cs1, sn1), complex(cs2, sn2)
		}
		y1 := v[l1] * f1
		y2 := v[l2] * f2
		v[l1] = a*y1 - bc*y2
		v[l2] = b*y1 + ac*y2
	}
}

// ApplyPhaseThenUniformRXFused combines the phase with the F = 2
// fused mixer: the phase folds into the first RX⊗RX quadruple pass
// (qubits 0–1), the remaining pairs sweep as usual, and odd n
// finishes with one single-qubit pass.
func ApplyPhaseThenUniformRXFused(v Vec, ph Phase, beta float64) {
	ph.check("ApplyPhaseThenUniformRXFused", len(v))
	n := v.NumQubits()
	if n < 2 {
		ApplyPhaseThenUniformRX(v, ph, beta)
		return
	}
	s, c := math.Sincos(beta)
	cc := complex(c*c, 0)
	ss := complex(-s*s, 0)
	ics := complex(0, -c*s)
	phaseRXPair0Range(v, ph, cc, ss, ics, 0, len(v)/4)
	q := 2
	for ; q+1 < n; q += 2 {
		applyFusedRXPair(v, q, cc, ss, ics)
	}
	if q < n {
		ApplySU2(v, q, complex(c, 0), complex(0, -s))
	}
}

// ApplyPhaseThenUniformRXFused is the pool version of the combined
// phase + F = 2 fused sweep.
func (p *Pool) ApplyPhaseThenUniformRXFused(v Vec, ph Phase, beta float64) {
	ph.check("ApplyPhaseThenUniformRXFused", len(v))
	n := v.NumQubits()
	if n < 2 {
		p.ApplyPhaseThenUniformRX(v, ph, beta)
		return
	}
	s, c := math.Sincos(beta)
	cc := complex(c*c, 0)
	ss := complex(-s*s, 0)
	ics := complex(0, -c*s)
	p.Run(len(v)/4, func(lo, hi int) { phaseRXPair0Range(v, ph, cc, ss, ics, lo, hi) })
	q := 2
	for ; q+1 < n; q += 2 {
		stride := 1 << uint(q)
		mask := stride - 1
		p.Run(len(v)/4, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				i00 := (t>>uint(q))<<uint(q+2) | (t & mask)
				i01 := i00 + stride
				i10 := i00 + 2*stride
				i11 := i01 + 2*stride
				y00, y01, y10, y11 := v[i00], v[i01], v[i10], v[i11]
				v[i00] = cc*y00 + ics*y01 + ics*y10 + ss*y11
				v[i01] = ics*y00 + cc*y01 + ss*y10 + ics*y11
				v[i10] = ics*y00 + ss*y01 + cc*y10 + ics*y11
				v[i11] = ss*y00 + ics*y01 + ics*y10 + cc*y11
			}
		})
	}
	if q < n {
		p.ApplySU2(v, q, complex(c, 0), complex(0, -s))
	}
}

// phaseRXPair0Range phases the amplitude quadruples 4t..4t+3,
// t ∈ [lo, hi), and applies the RX⊗RX block on qubits 0–1 to them.
func phaseRXPair0Range(v Vec, ph Phase, cc, ss, ics complex128, lo, hi int) {
	diag, gamma, codes, tab := ph.Diag, ph.Gamma, ph.Codes, ph.Tab
	for t := lo; t < hi; t++ {
		i00 := 4 * t
		i01, i10, i11 := i00+1, i00+2, i00+3
		var f0, f1, f2, f3 complex128
		if codes != nil {
			f0, f1, f2, f3 = tab[codes[i00]], tab[codes[i01]], tab[codes[i10]], tab[codes[i11]]
		} else {
			sn0, cs0 := math.Sincos(-gamma * diag[i00])
			sn1, cs1 := math.Sincos(-gamma * diag[i01])
			sn2, cs2 := math.Sincos(-gamma * diag[i10])
			sn3, cs3 := math.Sincos(-gamma * diag[i11])
			f0, f1, f2, f3 = complex(cs0, sn0), complex(cs1, sn1), complex(cs2, sn2), complex(cs3, sn3)
		}
		y00 := v[i00] * f0
		y01 := v[i01] * f1
		y10 := v[i10] * f2
		y11 := v[i11] * f3
		v[i00] = cc*y00 + ics*y01 + ics*y10 + ss*y11
		v[i01] = ics*y00 + cc*y01 + ss*y10 + ics*y11
		v[i10] = ics*y00 + ss*y01 + cc*y10 + ics*y11
		v[i11] = ss*y00 + ics*y01 + ics*y10 + cc*y11
	}
}

// ApplyPhaseThenUniformRX is the split-layout combined sweep: phase
// rotation and qubit-0 RX butterfly expanded into real arithmetic in
// one pass, then plain ApplyRX passes for qubits 1..n−1.
func (s *SoA) ApplyPhaseThenUniformRX(p *Pool, ph Phase, beta float64) {
	phaseRX0Planes(p, s.Re, s.Im, ph, beta)
	for q := 1; q < s.NumQubits(); q++ {
		s.ApplyRX(p, q, beta)
	}
}

// ApplyPhaseThenUniformRX is the single-precision combined sweep.
// Phase factors and rotation coefficients are evaluated in float64
// and rounded once; the amplitude arithmetic is float32, matching the
// unfused ApplyPhase→ApplyRX sequence bit for bit.
func (s *SoA32) ApplyPhaseThenUniformRX(p *Pool, ph Phase, beta float64) {
	phaseRX0Planes(p, s.Re, s.Im, ph, beta)
	for q := 1; q < s.NumQubits(); q++ {
		s.ApplyRX(p, q, beta)
	}
}

// phaseRX0Planes is the first pass of the split-layout combined sweep:
// the phase folded into the qubit-0 RX butterfly (the phase alone at
// n = 0). The caller sweeps qubits 1..n−1.
func phaseRX0Planes[T planeElem](p *Pool, re, im []T, ph Phase, beta float64) {
	ph.check("ApplyPhaseThenUniformRX", len(re))
	if len(re) == 1 {
		applyPhasePlanes(p, re, im, ph)
		return
	}
	sn64, cs64 := math.Sincos(beta)
	sn, cs := T(sn64), T(cs64)
	diag, gamma, codes, tab := ph.Diag, ph.Gamma, ph.Codes, ph.Tab
	p.Run(len(re)/2, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			l1 := 2 * t
			l2 := l1 + 1
			var p1s64, p1c64, p2s64, p2c64 float64
			if codes != nil {
				f1, f2 := tab[codes[l1]], tab[codes[l2]]
				p1s64, p1c64, p2s64, p2c64 = imag(f1), real(f1), imag(f2), real(f2)
			} else {
				p1s64, p1c64 = math.Sincos(-gamma * diag[l1])
				p2s64, p2c64 = math.Sincos(-gamma * diag[l2])
			}
			p1s, p1c := T(p1s64), T(p1c64)
			p2s, p2c := T(p2s64), T(p2c64)
			r1 := re[l1]*p1c - im[l1]*p1s
			i1 := re[l1]*p1s + im[l1]*p1c
			r2 := re[l2]*p2c - im[l2]*p2s
			i2 := re[l2]*p2s + im[l2]*p2c
			re[l1] = cs*r1 + sn*i2
			im[l1] = cs*i1 - sn*r2
			re[l2] = cs*r2 + sn*i1
			im[l2] = cs*i2 - sn*r1
		}
	})
}

// ApplyPhaseThenUniformRXFused is the split-layout combined phase +
// F = 2 fused sweep.
func (sv *SoA) ApplyPhaseThenUniformRXFused(p *Pool, ph Phase, beta float64) {
	n := sv.NumQubits()
	if n < 2 {
		sv.ApplyPhaseThenUniformRX(p, ph, beta)
		return
	}
	q := phaseRXPairsPlanes(p, sv.Re, sv.Im, ph, beta)
	if q < n {
		sv.ApplyRX(p, q, beta)
	}
}

// ApplyPhaseThenUniformRXFused is the single-precision combined phase
// + F = 2 fused sweep.
func (s *SoA32) ApplyPhaseThenUniformRXFused(p *Pool, ph Phase, beta float64) {
	n := s.NumQubits()
	if n < 2 {
		s.ApplyPhaseThenUniformRX(p, ph, beta)
		return
	}
	q := phaseRXPairsPlanes(p, s.Re, s.Im, ph, beta)
	if q < n {
		s.ApplyRX(p, q, beta)
	}
}

// phaseRXPairsPlanes folds the phase into the RX⊗RX pass on qubits 0–1
// and sweeps the remaining qubit pairs (n ≥ 2). It returns the first
// qubit left unswept: n for even n, n−1 for odd n.
func phaseRXPairsPlanes[T planeElem](p *Pool, re, im []T, ph Phase, beta float64) int {
	ph.check("ApplyPhaseThenUniformRXFused", len(re))
	cc, ss, cs := rxPairCoeffs[T](beta)
	diag, gamma, codes, tab := ph.Diag, ph.Gamma, ph.Codes, ph.Tab
	p.Run(len(re)/4, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			i00 := 4 * t
			i01, i10, i11 := i00+1, i00+2, i00+3
			var p0s64, p0c64, p1s64, p1c64, p2s64, p2c64, p3s64, p3c64 float64
			if codes != nil {
				f0, f1, f2, f3 := tab[codes[i00]], tab[codes[i01]], tab[codes[i10]], tab[codes[i11]]
				p0s64, p0c64, p1s64, p1c64 = imag(f0), real(f0), imag(f1), real(f1)
				p2s64, p2c64, p3s64, p3c64 = imag(f2), real(f2), imag(f3), real(f3)
			} else {
				p0s64, p0c64 = math.Sincos(-gamma * diag[i00])
				p1s64, p1c64 = math.Sincos(-gamma * diag[i01])
				p2s64, p2c64 = math.Sincos(-gamma * diag[i10])
				p3s64, p3c64 = math.Sincos(-gamma * diag[i11])
			}
			p0s, p0c := T(p0s64), T(p0c64)
			p1s, p1c := T(p1s64), T(p1c64)
			p2s, p2c := T(p2s64), T(p2c64)
			p3s, p3c := T(p3s64), T(p3c64)
			r00 := re[i00]*p0c - im[i00]*p0s
			m00 := re[i00]*p0s + im[i00]*p0c
			r01 := re[i01]*p1c - im[i01]*p1s
			m01 := re[i01]*p1s + im[i01]*p1c
			r10 := re[i10]*p2c - im[i10]*p2s
			m10 := re[i10]*p2s + im[i10]*p2c
			r11 := re[i11]*p3c - im[i11]*p3s
			m11 := re[i11]*p3s + im[i11]*p3c
			re[i00] = cc*r00 + cs*(m01+m10) - ss*r11
			im[i00] = cc*m00 - cs*(r01+r10) - ss*m11
			re[i01] = cc*r01 + cs*(m00+m11) - ss*r10
			im[i01] = cc*m01 - cs*(r00+r11) - ss*m10
			re[i10] = cc*r10 + cs*(m00+m11) - ss*r01
			im[i10] = cc*m10 - cs*(r00+r11) - ss*m01
			re[i11] = cc*r11 + cs*(m01+m10) - ss*r00
			im[i11] = cc*m11 - cs*(r01+r10) - ss*m00
		}
	})
	q := 2
	for ; q+1 < numQubits(len(re)); q += 2 {
		rxPairPlanes(p, re, im, q, cc, ss, cs)
	}
	return q
}
