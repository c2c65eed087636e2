package statevec

import "math"

// split is a test's split-plane state of either precision: the tests
// run the generic *Planes kernels on its Re and Im.
type split[T Float] struct{ Re, Im []T }

// splitOf converts v into split planes, rounding to T.
func splitOf[T Float](v Vec) *split[T] {
	s := &split[T]{Re: make([]T, len(v)), Im: make([]T, len(v))}
	for i, a := range v {
		s.Re[i], s.Im[i] = T(real(a)), T(imag(a))
	}
	return s
}

// newSplit allocates the zero state of n qubits.
func newSplit[T Float](n int) *split[T] { return splitOf[T](New(n)) }

// toVec converts split planes to a complex128 vector.
func toVec[T Float](re, im []T) Vec {
	v := make(Vec, len(re))
	for i := range v {
		v[i] = complex(float64(re[i]), float64(im[i]))
	}
	return v
}

// applyRXPlanes applies RX(β) on qubit q of split planes in one pass
// over the state (Algorithm 1): the per-qubit sweep the tiled kernels
// are checked against.
func applyRXPlanes[T Float](p *Pool, re, im []T, q int, beta float64) {
	sn, cs := math.Sincos(beta)
	p.Run(len(re)/2, func(lo, hi int) { rxRange(re, im, q, T(cs), T(sn), lo, hi) })
}

// normSquared returns Σ|ψ_x|² of split planes, accumulated in float64.
func normSquared[T Float](p *Pool, re, im []T) float64 {
	return p.Reduce(len(re), func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			r, m := float64(re[i]), float64(im[i])
			acc += r*r + m*m
		}
		return acc
	})
}

// soaVec converts an SoA state to a complex128 vector.
func soaVec(s *SoA) Vec { return toVec(s.Re, s.Im) }
