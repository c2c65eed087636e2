package statevec

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Pool is the data-parallel kernel engine: the CPU stand-in for the
// paper's GPU. Every kernel call splits its index space into
// contiguous chunks executed by Workers goroutines, mirroring how the
// CUDA kernels assign one amplitude pair per thread. On a machine with
// one core the pool degrades gracefully to near-serial execution.
type Pool struct {
	Workers int
	// minParallel is the smallest index space worth splitting; below
	// it kernels run inline to avoid goroutine overhead on tiny states.
	minParallel int
}

// NewPool returns a pool with the given worker count; w ≤ 0 selects
// runtime.GOMAXPROCS(0).
func NewPool(w int) *Pool {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Pool{Workers: w, minParallel: 1 << 12}
}

// Run partitions [0, n) into Workers contiguous chunks and invokes fn
// on each concurrently, blocking until all finish. Chunks are disjoint
// so fn may write freely within its range.
func (p *Pool) Run(n int, fn func(lo, hi int)) { p.runTasks(n, n, fn) }

// Reduce runs fn over [0, n) in chunks, collecting one float64 partial
// result per chunk and returning their sum in chunk order.
func (p *Pool) Reduce(n int, fn func(lo, hi int) float64) float64 {
	if _, count := p.split(n, n); count == 1 {
		return fn(0, n)
	}
	s, _ := p.reduceTasks(n, n, func(lo, hi int) (float64, float64) { return fn(lo, hi), 0 })
	return s
}

// split returns the chunk length and chunk count Run and Reduce use for
// n tasks covering work amplitudes: one inline chunk when the pool is
// serial or work is below minParallel, else at most Workers chunks.
func (p *Pool) split(n, work int) (size, count int) {
	if p == nil || p.Workers <= 1 || work < p.minParallel || n < 2 {
		return n, 1
	}
	w := min(p.Workers, n)
	size = (n + w - 1) / w
	return size, (n + size - 1) / size
}

// runTasks is Run over n coarse tasks, such as the tiles of the tiled
// mixer kernels, that together cover work amplitudes: work, not the
// task count, decides whether the call is worth splitting.
func (p *Pool) runTasks(n, work int, fn func(lo, hi int)) {
	size, count := p.split(n, work)
	if count == 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(count)
	for lo := 0; lo < n; lo += size {
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+size, n))
	}
	wg.Wait()
}

// reduceTasks is the two-sum reduction over n coarse tasks covering
// work amplitudes: fn returns two partials per chunk, and each sum is
// taken in chunk order, so results depend on the chunking alone.
func (p *Pool) reduceTasks(n, work int, fn func(lo, hi int) (float64, float64)) (a, b float64) {
	size, count := p.split(n, work)
	if count == 1 {
		return fn(0, n)
	}
	partial := make([][2]float64, count)
	p.runTasks(n, work, func(lo, hi int) {
		k := lo / size
		partial[k][0], partial[k][1] = fn(lo, hi)
	})
	for _, x := range partial {
		a += x[0]
		b += x[1]
	}
	return a, b
}

// workers returns the pool size (1 for a nil pool).
func (p *Pool) workers() int {
	if p == nil {
		return 1
	}
	return p.Workers
}

// ApplySU2 is the pool version of Algorithm 1: each of the 2^{n−1}
// amplitude pairs is an independent work item, exactly the GPU kernel
// decomposition described in §III-B.
func (p *Pool) ApplySU2(v Vec, q int, a, b complex128) {
	stride := checkStride(v, q)
	ac, bc := conj(a), conj(b)
	mask := stride - 1
	p.Run(len(v)/2, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			l1 := (t>>uint(q))<<uint(q+1) | (t & mask)
			l2 := l1 + stride
			y1, y2 := v[l1], v[l2]
			v[l1] = a*y1 - bc*y2
			v[l2] = b*y1 + ac*y2
		}
	})
}

// ApplyUniformRX applies the transverse-field mixer with the pool
// engine (Algorithm 2 over Algorithm 1 pool kernels).
func (p *Pool) ApplyUniformRX(v Vec, beta float64) {
	n := v.NumQubits()
	s, c := math.Sincos(beta)
	a, b := complex(c, 0), complex(0, -s)
	for q := 0; q < n; q++ {
		p.ApplySU2(v, q, a, b)
	}
}

// ApplyXY is the pool version of the SU(4) xy kernel.
func (p *Pool) ApplyXY(v Vec, i, j int, beta float64) {
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
	maskI, maskJ := 1<<uint(i), 1<<uint(j)
	p.Run(len(v)>>2, func(from, to int) {
		for t := from; t < to; t++ {
			base := expand2(t, lo, hi)
			xa := base | maskI
			xb := base | maskJ
			ya, yb := v[xa], v[xb]
			v[xa] = c*ya + s*yb
			v[xb] = s*ya + c*yb
		}
	})
}

// Apply1Q is the pool version of the generic single-qubit gate; the
// gate-based baseline engine uses it for its parallel ("cuStateVec
// gates") mode.
func (p *Pool) Apply1Q(v Vec, q int, u [2][2]complex128) {
	stride := checkStride(v, q)
	mask := stride - 1
	p.Run(len(v)/2, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			l1 := (t>>uint(q))<<uint(q+1) | (t & mask)
			l2 := l1 + stride
			y1, y2 := v[l1], v[l2]
			v[l1] = u[0][0]*y1 + u[0][1]*y2
			v[l2] = u[1][0]*y1 + u[1][1]*y2
		}
	})
}

// Apply2Q is the pool version of the generic two-qubit gate (same
// basis convention as the serial Apply2Q).
func (p *Pool) Apply2Q(v Vec, q1, q2 int, u [4][4]complex128) {
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
	m1, m2 := 1<<uint(q1), 1<<uint(q2)
	p.Run(len(v)>>2, func(from, to int) {
		for t := from; t < to; t++ {
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
	})
}

// ExpectationDiag is the pool version of the objective inner product.
func (p *Pool) ExpectationDiag(v Vec, diag []float64) float64 {
	if len(v) != len(diag) {
		panic(fmt.Sprintf("statevec: ExpectationDiag length mismatch %d vs %d", len(v), len(diag)))
	}
	return p.Reduce(len(v), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			a := v[i]
			s += diag[i] * (real(a)*real(a) + imag(a)*imag(a))
		}
		return s
	})
}

// NormSquared returns ‖v‖₂² with a parallel reduction.
func (p *Pool) NormSquared(v Vec) float64 {
	return p.Reduce(len(v), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			a := v[i]
			s += real(a)*real(a) + imag(a)*imag(a)
		}
		return s
	})
}
