package statevec

import "math"

// This file holds the fused phase+mixer layer kernels of the complex128
// representations. A QAOA layer is one elementwise diagonal phase
// multiply followed by the transverse-field mixer sweep; run separately
// those cost two full memory traversals where the first mixer pass
// could have absorbed the phase for free. Each kernel here folds
// e^{−iγ·diag_x} into the qubit-0 butterfly of the per-qubit sweep,
// then finishes with the ordinary sweep over the remaining qubits. (The
// split layouts fold the phase into their tiled layer, tiled.go.)
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
