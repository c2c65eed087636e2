package statevec

import (
	"fmt"
	"math"
)

// Phase is the source of one phase-operator application e^{−iγĈ} with
// Ĉ = diag(Diag). With Codes nil, every kernel evaluates
// math.Sincos(−Gamma·Diag[x]) per amplitude. When the diagonal takes
// only a few distinct values (an affine grid Min + Scale·k, as for
// LABS, unweighted MaxCut or any integer cost), Codes[x] names the
// level of amplitude x and Tab[k] holds e^{−iγ·level_k}, built once
// per γ: kernels then gather Tab[Codes[x]] instead of calling sincos.
// The caller guarantees that level_{Codes[x]} equals Diag[x] bit for
// bit, so each table entry is the sincos of the same float64 argument
// and both sources give bit-identical states.
//
// Diag may be nil when Codes is set: a codes-only source, as a
// distributed rank whose diagonal slice is an exact grid holds. The split-layout reductions
// (ReversePhase, Expectation, MulCost) then read level_k = Min +
// Scale·k, which equals the float64 entry bitwise when the codes are
// an exact grid. The complex128 reductions require Diag.
type Phase struct {
	Diag  []float64
	Gamma float64
	Codes []uint16
	Tab   []complex128
	// Min and Scale define level_k = Min + Scale·k of a codes-only
	// source; they are not read while Diag is set.
	Min, Scale float64
}

// active reports whether ph has a cost source (a zero Phase has none).
func (ph *Phase) active() bool { return ph.Diag != nil || ph.Codes != nil }

// check panics unless the phase source covers a size-amplitude state.
func (ph *Phase) check(op string, size int) {
	codesOnly := ph.Diag == nil && ph.Codes != nil
	if !codesOnly && len(ph.Diag) != size || ph.Codes != nil && len(ph.Codes) != size {
		panic(fmt.Sprintf("statevec: %s length mismatch: state %d, diagonal %d, codes %d", op, size, len(ph.Diag), len(ph.Codes)))
	}
}

// ApplyPhase multiplies each amplitude by e^{−iγ·diag_x} in place: the
// QAOA phase operator applied from the precomputed cost diagonal
// (Algorithm 3, step 4), through a phase table when ph has one.
func ApplyPhase(v Vec, ph Phase) {
	ph.check("ApplyPhase", len(v))
	phaseRange(v, ph, 0, len(v))
}

func phaseRange(v Vec, ph Phase, lo, hi int) {
	diag, gamma, codes, tab := ph.Diag, ph.Gamma, ph.Codes, ph.Tab
	for i := lo; i < hi; i++ {
		var f complex128
		if codes != nil {
			f = tab[codes[i]]
		} else {
			s, c := math.Sincos(-gamma * diag[i])
			f = complex(c, s)
		}
		v[i] *= f
	}
}

// Float is the element type of the split-layout states' real and
// imaginary planes: float64, or float32 for the single-precision mode.
// The *Planes kernels run the same arithmetic on either, with rotation
// coefficients and phase factors computed in float64 and rounded once
// to the plane type, and reductions accumulated in float64.
type Float interface {
	float32 | float64
}

// ApplyPhasePlanes is the phase operator on split planes: each
// amplitude times e^{−iγ·diag_x}, the factor evaluated in float64 and
// rounded once to the plane type.
func ApplyPhasePlanes[T Float](p *Pool, re, im []T, ph Phase) {
	ph.check("ApplyPhase", len(re))
	p.Run(len(re), func(lo, hi int) { phaseRangePlanes(re, im, ph, lo, hi) })
}

// phaseRangePlanes multiplies the amplitudes [lo, hi) of split planes
// by their phase factors.
func phaseRangePlanes[T Float](re, im []T, ph Phase, lo, hi int) {
	diag, gamma, codes, tab := ph.Diag, ph.Gamma, ph.Codes, ph.Tab
	for i := lo; i < hi; i++ {
		var sn64, cs64 float64
		if codes != nil {
			cs64, sn64 = real(tab[codes[i]]), imag(tab[codes[i]])
		} else {
			sn64, cs64 = math.Sincos(-gamma * diag[i])
		}
		sn, cs := T(sn64), T(cs64)
		r, m := re[i], im[i]
		re[i] = r*cs - m*sn
		im[i] = r*sn + m*cs
	}
}
