// Package statevec is the state-vector substrate of the simulator: a
// dense 2^n complex128 amplitude vector together with the in-place
// kernels the QOKit paper builds on — the strided SU(2) pair update of
// Algorithm 1, the uniform SU(2) transform of Algorithm 2, the SU(4)
// pair kernel behind the xy mixers, diagonal (phase) multiplication,
// the fast Walsh–Hadamard transform, and the reductions (norm, inner
// product, diagonal expectation) that evaluate the QAOA objective.
//
// The kernels come in two representations:
//   - serial complex128 loops over a Vec (the portable reference, and
//     the gate-based baseline's substrate, whose xy and generic 1-qubit
//     gates also have worker-pool forms), and
//   - generic kernels on split real/imaginary planes of float64 or
//     float32 (the *Planes functions) run on a worker Pool, the CPU
//     analogue of the paper's CUDA grid (the index space is split into
//     independent chunks) and of the vendor-tuned cuStateVec kernels;
//     internal/shard holds the simulators' states in this form.
package statevec

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// Vec is a dense state vector of 2^n complex amplitudes. Index x is
// the computational basis state whose qubit i equals bit i of x
// (little-endian).
type Vec []complex128

// New allocates the zero vector (all amplitudes 0) for n qubits.
func New(n int) Vec {
	checkQubits(n)
	return make(Vec, 1<<uint(n))
}

// NewBasis returns |x⟩ for n qubits.
func NewBasis(n int, x uint64) Vec {
	v := New(n)
	if x >= uint64(len(v)) {
		panic(fmt.Sprintf("statevec: basis state %d out of range for n=%d", x, n))
	}
	v[x] = 1
	return v
}

// NewUniform returns |+⟩^⊗n, the standard QAOA initial state.
func NewUniform(n int) Vec {
	v := New(n)
	amp := complex(1/math.Sqrt(float64(len(v))), 0)
	for i := range v {
		v[i] = amp
	}
	return v
}

// NewDicke returns the Dicke state |D^n_k⟩: the uniform superposition
// of all weight-k basis states. It is the standard initial state for
// Hamming-weight-preserving xy mixers (the paper's §III-B mixers).
func NewDicke(n, k int) Vec {
	if k < 0 || k > n {
		panic(fmt.Sprintf("statevec: Dicke weight k=%d out of range [0,%d]", k, n))
	}
	v := New(n)
	count := binomial(n, k)
	amp := complex(1/math.Sqrt(float64(count)), 0)
	for x := range v {
		if bits.OnesCount64(uint64(x)) == k {
			v[x] = amp
		}
	}
	return v
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

// maxQubits is the most qubits a state may have.
const maxQubits = 40

func checkQubits(n int) {
	if n < 0 || n > maxQubits {
		panic(fmt.Sprintf("statevec: n=%d out of supported range [0,%d]", n, maxQubits))
	}
}

// NumQubits returns n for a 2^n-length vector; it panics if the length
// is not a power of two.
func (v Vec) NumQubits() int { return numQubits(len(v)) }

func numQubits(length int) int {
	n := bits.TrailingZeros(uint(length))
	if length == 0 || 1<<uint(n) != length {
		panic(fmt.Sprintf("statevec: length %d is not a power of two", length))
	}
	return n
}

// Clone returns a deep copy.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Norm returns ‖v‖₂.
func (v Vec) Norm() float64 {
	var s float64
	for _, a := range v {
		s += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(s)
}

// Normalize rescales v to unit norm in place; it is a no-op for the
// zero vector.
func (v Vec) Normalize() {
	n := v.Norm()
	if n == 0 {
		return
	}
	inv := complex(1/n, 0)
	for i := range v {
		v[i] *= inv
	}
}

// Probabilities writes |v_x|² into dst (allocating it if nil or too
// short) and returns it. This is the paper's get_probabilities output
// method.
func (v Vec) Probabilities(dst []float64) []float64 {
	if cap(dst) < len(v) {
		dst = make([]float64, len(v))
	}
	dst = dst[:len(v)]
	for i, a := range v {
		dst[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return dst
}

// Dot returns ⟨a|b⟩ = Σ_x conj(a_x)·b_x. It panics on length mismatch.
func Dot(a, b Vec) complex128 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("statevec: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var re, im float64
	for i := range a {
		ar, ai := real(a[i]), imag(a[i])
		br, bi := real(b[i]), imag(b[i])
		re += ar*br + ai*bi
		im += ar*bi - ai*br
	}
	return complex(re, im)
}

// ExpectationDiag returns ⟨v| diag |v⟩ = Σ_x diag_x |v_x|², the paper's
// single-inner-product objective evaluation (§III-A). It panics on
// length mismatch.
func ExpectationDiag(v Vec, diag []float64) float64 {
	if len(v) != len(diag) {
		panic(fmt.Sprintf("statevec: ExpectationDiag length mismatch %d vs %d", len(v), len(diag)))
	}
	var s float64
	for i, a := range v {
		s += diag[i] * (real(a)*real(a) + imag(a)*imag(a))
	}
	return s
}

// MaxAbsDiff returns max_x |a_x − b_x|, used by tests to compare
// simulator backends.
func MaxAbsDiff(a, b Vec) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("statevec: MaxAbsDiff length mismatch %d vs %d", len(a), len(b)))
	}
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// PhaseDiag multiplies each amplitude by e^{−iγ·diag_x} in place: the
// QAOA phase operator applied from the precomputed cost diagonal
// (Algorithm 3, step 4).
func PhaseDiag(v Vec, diag []float64, gamma float64) {
	ApplyPhase(v, Phase{Diag: diag, Gamma: gamma})
}
