package statevec

import (
	"fmt"
	"math"
)

// ApplySU2 applies U = I ⊗ … ⊗ U⋆ ⊗ … ⊗ I in place, where the 2×2
// block U⋆ = [[a, −conj(b)], [b, conj(a)]] ∈ SU(2) acts on qubit q.
// This is Algorithm 1 of the paper: every amplitude pair (l1, l2)
// differing only in bit q is rotated independently, in place, with no
// extra memory.
func ApplySU2(v Vec, q int, a, b complex128) {
	stride := checkStride(v, q)
	ac, bc := conj(a), conj(b)
	for base := 0; base < len(v); base += 2 * stride {
		for off := 0; off < stride; off++ {
			l1 := base + off
			l2 := l1 + stride
			y1, y2 := v[l1], v[l2]
			v[l1] = a*y1 - bc*y2
			v[l2] = b*y1 + ac*y2
		}
	}
}

// Apply1Q applies an arbitrary 2×2 matrix u (row-major, u[row][col])
// to qubit q in place. Unlike ApplySU2 it does not assume unitarity;
// the gate-based baseline uses it for its generic gate set.
func Apply1Q(v Vec, q int, u [2][2]complex128) {
	stride := checkStride(v, q)
	for base := 0; base < len(v); base += 2 * stride {
		for off := 0; off < stride; off++ {
			l1 := base + off
			l2 := l1 + stride
			y1, y2 := v[l1], v[l2]
			v[l1] = u[0][0]*y1 + u[0][1]*y2
			v[l2] = u[1][0]*y1 + u[1][1]*y2
		}
	}
}

// ApplyRX applies e^{−iβX} = [[cos β, −i sin β], [−i sin β, cos β]] to
// qubit q: one factor of the paper's transverse-field mixer.
func ApplyRX(v Vec, q int, beta float64) {
	s, c := math.Sincos(beta)
	ApplySU2(v, q, complex(c, 0), complex(0, -s))
}

// ApplyUniformRX applies the full transverse-field mixer e^{−iβΣX_i} =
// Π_i e^{−iβX_i} by sweeping Algorithm 1 over every qubit — the
// paper's Algorithm 2 with U_i = RX(β) for all i.
func ApplyUniformRX(v Vec, beta float64) {
	n := v.NumQubits()
	s, c := math.Sincos(beta)
	a, b := complex(c, 0), complex(0, -s)
	for q := 0; q < n; q++ {
		ApplySU2(v, q, a, b)
	}
}

// ApplyXY applies e^{−iβ(X_iX_j + Y_iY_j)/2} to the qubit pair (i, j)
// in place. The operator is the identity on |00⟩ and |11⟩ and rotates
// the (|..1_i..0_j..⟩, |..0_i..1_j..⟩) amplitude pairs by
// [[cos β, −i sin β], [−i sin β, cos β]]; it therefore conserves
// Hamming weight exactly. This is the SU(4) extension of Algorithm 1
// that the paper uses for the xy mixers.
func ApplyXY(v Vec, i, j int, beta float64) {
	if i == j {
		panic("statevec: ApplyXY requires distinct qubits")
	}
	n := v.NumQubits()
	if i < 0 || i >= n || j < 0 || j >= n {
		panic(fmt.Sprintf("statevec: ApplyXY qubits (%d,%d) out of range for n=%d", i, j, n))
	}
	s64, c64 := math.Sincos(beta)
	c, s := complex(c64, 0), complex(0, -s64)
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	quarter := len(v) >> 2
	maskI, maskJ := 1<<uint(i), 1<<uint(j)
	for t := 0; t < quarter; t++ {
		base := expand2(t, lo, hi)
		xa := base | maskI
		xb := base | maskJ
		ya, yb := v[xa], v[xb]
		v[xa] = c*ya + s*yb
		v[xb] = s*ya + c*yb
	}
}

// Apply2Q applies an arbitrary 4×4 matrix u to the qubit pair
// (q1, q2), with two-qubit basis index r = (bit of q2)·2 + (bit of q1).
func Apply2Q(v Vec, q1, q2 int, u [4][4]complex128) {
	if q1 == q2 {
		panic("statevec: Apply2Q requires distinct qubits")
	}
	n := v.NumQubits()
	if q1 < 0 || q1 >= n || q2 < 0 || q2 >= n {
		panic(fmt.Sprintf("statevec: Apply2Q qubits (%d,%d) out of range for n=%d", q1, q2, n))
	}
	lo, hi := q1, q2
	if lo > hi {
		lo, hi = hi, lo
	}
	quarter := len(v) >> 2
	m1, m2 := 1<<uint(q1), 1<<uint(q2)
	for t := 0; t < quarter; t++ {
		i00 := expand2(t, lo, hi)
		i01 := i00 | m1
		i10 := i00 | m2
		i11 := i01 | m2
		y0, y1, y2, y3 := v[i00], v[i01], v[i10], v[i11]
		v[i00] = u[0][0]*y0 + u[0][1]*y1 + u[0][2]*y2 + u[0][3]*y3
		v[i01] = u[1][0]*y0 + u[1][1]*y1 + u[1][2]*y2 + u[1][3]*y3
		v[i10] = u[2][0]*y0 + u[2][1]*y1 + u[2][2]*y2 + u[2][3]*y3
		v[i11] = u[3][0]*y0 + u[3][1]*y1 + u[3][2]*y2 + u[3][3]*y3
	}
}

// expand2 inserts zero bits at positions lo and hi (lo < hi) into the
// packed index t, enumerating all indices whose lo-th and hi-th bits
// are clear. This is how one GPU thread (here: one loop iteration)
// addresses its two-qubit amplitude quadruple.
func expand2(t, lo, hi int) int {
	lowMask := 1<<uint(lo) - 1
	midMask := 1<<uint(hi-1) - 1
	x := t & lowMask
	y := (t >> uint(lo)) & (midMask >> uint(lo))
	z := t >> uint(hi-1)
	return x | y<<uint(lo+1) | z<<uint(hi+1)
}

func checkStride(v Vec, q int) int {
	n := v.NumQubits()
	if q < 0 || q >= n {
		panic(fmt.Sprintf("statevec: qubit %d out of range for n=%d", q, n))
	}
	return 1 << uint(q)
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }
