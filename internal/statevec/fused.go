package statevec

import "math"

// ApplyUniformRXFused applies the transverse-field mixer e^{−iβΣX_i}
// with qubits processed two at a time: each pass applies the 4×4
// tensor product RX(β)⊗RX(β) to a quadruple of amplitudes, halving the
// number of passes over the state vector compared to Algorithm 2's
// per-qubit sweeps. This is the paper's §VI "gate fusion with F = 2"
// applied to the one place it still helps after diagonal
// precomputation — the mixer — and is the ablation target measuring
// how memory-bound the mixer sweep is. Odd n finishes with one
// single-qubit sweep.
//
// The fused 4×4 block for U = [[c, −is], [−is, c]] ⊗ same is
//
//	[ cc   −ics  −ics  −ss ]
//	[ −ics  cc   −ss   −ics]
//	[ −ics  −ss   cc   −ics]
//	[ −ss  −ics  −ics   cc ]
//
// with cc = cos²β, ss = sin²β, cs = cosβ·sinβ.
func ApplyUniformRXFused(v Vec, beta float64) {
	n := v.NumQubits()
	s, c := math.Sincos(beta)
	cc := complex(c*c, 0)
	ss := complex(-s*s, 0)
	ics := complex(0, -c*s)
	q := 0
	for ; q+1 < n; q += 2 {
		applyFusedRXPair(v, q, cc, ss, ics)
	}
	if q < n {
		ApplySU2(v, q, complex(c, 0), complex(0, -s))
	}
}

// applyFusedRXPair applies RX⊗RX on adjacent qubits (q, q+1). The
// quadruple (i00, i01, i10, i11) shares all other bits, so with
// adjacent qubits the four amplitudes sit in two contiguous runs —
// the cache-friendly case the fused sweep exploits.
func applyFusedRXPair(v Vec, q int, cc, ss, ics complex128) {
	stride := 1 << uint(q)
	for base := 0; base < len(v); base += 4 * stride {
		for off := 0; off < stride; off++ {
			i00 := base + off
			i01 := i00 + stride
			i10 := i00 + 2*stride
			i11 := i01 + 2*stride
			y00, y01, y10, y11 := v[i00], v[i01], v[i10], v[i11]
			v[i00] = cc*y00 + ics*y01 + ics*y10 + ss*y11
			v[i01] = ics*y00 + cc*y01 + ss*y10 + ics*y11
			v[i10] = ics*y00 + ss*y01 + cc*y10 + ics*y11
			v[i11] = ss*y00 + ics*y01 + ics*y10 + cc*y11
		}
	}
}

// ApplyUniformRXFusedPool is the worker-pool version of the fused
// mixer: each pass parallelizes over the quadruple index space.
func (p *Pool) ApplyUniformRXFused(v Vec, beta float64) {
	n := v.NumQubits()
	s, c := math.Sincos(beta)
	cc := complex(c*c, 0)
	ss := complex(-s*s, 0)
	ics := complex(0, -c*s)
	q := 0
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

// ApplyUniformRXFused is the SoA version of the fused two-qubit mixer
// sweep, composing the split layout with F = 2 fusion — the fastest
// single-node mixer in this package.
func (sv *SoA) ApplyUniformRXFused(p *Pool, beta float64) {
	applyUniformRXFusedPlanes(p, sv.Re, sv.Im, beta)
	if n := sv.NumQubits(); n%2 == 1 {
		sv.ApplyRX(p, n-1, beta)
	}
}

// applyUniformRXFusedPlanes sweeps RX⊗RX over the qubit pairs (0,1),
// (2,3), … of split planes; odd n leaves the last qubit to the caller.
func applyUniformRXFusedPlanes[T planeElem](p *Pool, re, im []T, beta float64) {
	cc, ss, cs := rxPairCoeffs[T](beta)
	for q := 0; q+1 < numQubits(len(re)); q += 2 {
		rxPairPlanes(p, re, im, q, cc, ss, cs)
	}
}

// rxPairCoeffs returns the RX⊗RX block's cos²β, sin²β and cosβ·sinβ,
// computed in float64 and rounded once to the plane type.
func rxPairCoeffs[T planeElem](beta float64) (cc, ss, cs T) {
	s, c := math.Sincos(beta)
	return T(c * c), T(s * s), T(c * s)
}

// rxPairPlanes applies RX⊗RX on the adjacent qubits (q, q+1) of split
// planes: the (cc − i·cs·(01+10) − ss·(11)) pattern of the fused block
// expanded into real arithmetic (−i·x has re = im(x), im = −re(x)).
func rxPairPlanes[T planeElem](p *Pool, re, im []T, q int, cc, ss, cs T) {
	stride := 1 << uint(q)
	mask := stride - 1
	p.Run(len(re)/4, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			i00 := (t>>uint(q))<<uint(q+2) | (t & mask)
			i01 := i00 + stride
			i10 := i00 + 2*stride
			i11 := i01 + 2*stride
			r00, m00 := re[i00], im[i00]
			r01, m01 := re[i01], im[i01]
			r10, m10 := re[i10], im[i10]
			r11, m11 := re[i11], im[i11]
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
}
