package statevec

import (
	"math/rand"
	"sync"
	"testing"
)

// These tests pin the Pool kernels under *shared concurrent use*: the
// sweep engine hands one Pool to many evaluation goroutines at once,
// each applying kernels to its own state. The Pool must behave as a
// pure fan-out — no state of its own — so every concurrent result must
// match the serial kernel bit for bit. Run with -race.

// concurrently runs fn from `workers` goroutines with distinct ids and
// waits for all.
func concurrently(workers int, fn func(id int)) {
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			fn(id)
		}(k)
	}
	wg.Wait()
}

// randomVec draws a (non-normalized) random state.
func randomVec(rng *rand.Rand, n int) Vec {
	v := New(n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

// TestPoolPhaseDiagConcurrent pins PhaseDiag: 8 goroutines share one
// Pool, each phasing its own SoA and SoA32 state against its own
// diagonal. The phase is elementwise, so SoA must match the serial
// kernel exactly and SoA32 the same kernel run alone on one worker.
func TestPoolPhaseDiagConcurrent(t *testing.T) {
	const n, workers = 11, 8
	pool := NewPool(4)
	pool.minParallel = 1 // force the parallel code path at 2^11 amplitudes

	type job struct {
		soa    *split[float64]
		soa32  *split[float32]
		want   Vec
		want32 *split[float32]
		diag   []float64
		gamma  float64
	}
	jobs := make([]job, workers)
	rng := rand.New(rand.NewSource(17))
	for k := range jobs {
		v := randomVec(rng, n)
		diag := make([]float64, len(v))
		for i := range diag {
			diag[i] = rng.NormFloat64()
		}
		jobs[k] = job{
			soa:    splitOf[float64](v),
			soa32:  splitOf[float32](v),
			want:   v.Clone(),
			want32: splitOf[float32](v),
			diag:   diag,
			gamma:  rng.Float64(),
		}
		PhaseDiag(jobs[k].want, diag, jobs[k].gamma) // serial reference
		ApplyPhasePlanes(NewPool(1), jobs[k].want32.Re, jobs[k].want32.Im, Phase{Diag: diag, Gamma: jobs[k].gamma})
	}

	concurrently(workers, func(id int) {
		j := &jobs[id]
		ApplyPhasePlanes(pool, j.soa.Re, j.soa.Im, Phase{Diag: j.diag, Gamma: j.gamma})
		ApplyPhasePlanes(pool, j.soa32.Re, j.soa32.Im, Phase{Diag: j.diag, Gamma: j.gamma})
	})

	for k, j := range jobs {
		if d := MaxAbsDiff(toVec(j.soa.Re, j.soa.Im), j.want); d != 0 {
			t.Errorf("worker %d: SoA PhaseDiag deviates from serial by %g", k, d)
		}
		if d := MaxAbsDiff(toVec(j.soa32.Re, j.soa32.Im), toVec(j.want32.Re, j.want32.Im)); d != 0 {
			t.Errorf("worker %d: SoA32 PhaseDiag deviates from a one-worker run by %g", k, d)
		}
	}
}

// TestPoolApplyUniformRXConcurrent pins the tiled F = 2 mixer on SoA
// and SoA32 under a shared pool (at n = 14 so the tiled passes split
// across the pool): every concurrent result equals the same kernel run
// alone on that pool bit for bit, and Algorithm 2's serial per-qubit
// sweep within the reassociated arithmetic's few ULPs (float32 within
// its rounding).
func TestPoolApplyUniformRXConcurrent(t *testing.T) {
	const n, workers = 14, 8
	pool := NewPool(4)
	pool.minParallel = 1

	rng := rand.New(rand.NewSource(23))
	betas := make([]float64, workers)
	inputs := make([]Vec, workers)
	wants := make([]Vec, workers)
	for k := 0; k < workers; k++ {
		betas[k] = rng.Float64() * 2
		inputs[k] = randomVec(rng, n)
		wants[k] = inputs[k].Clone()
		ApplyUniformRX(wants[k], betas[k]) // serial reference
	}

	variants := []struct {
		name  string
		tol   float64
		apply func(v Vec, beta float64) Vec
	}{
		{"soa", 1e-13, func(v Vec, beta float64) Vec {
			s := splitOf[float64](v)
			UniformRXPlanes(pool, s.Re, s.Im, Phase{}, beta)
			return toVec(s.Re, s.Im)
		}},
		{"soa32", 1e-4, func(v Vec, beta float64) Vec {
			s := splitOf[float32](v)
			UniformRXPlanes(pool, s.Re, s.Im, Phase{}, beta)
			return toVec(s.Re, s.Im)
		}},
	}
	for _, vt := range variants {
		t.Run(vt.name, func(t *testing.T) {
			alone := make([]Vec, workers)
			for k := range alone {
				alone[k] = vt.apply(inputs[k].Clone(), betas[k])
			}
			got := make([]Vec, workers)
			concurrently(workers, func(id int) {
				got[id] = vt.apply(inputs[id].Clone(), betas[id])
			})
			for k := 0; k < workers; k++ {
				if d := MaxAbsDiff(got[k], alone[k]); d != 0 {
					t.Errorf("worker %d: concurrent %s deviates from a run alone by %g", k, vt.name, d)
				}
				if d := MaxAbsDiff(got[k], wants[k]); d > vt.tol {
					t.Errorf("worker %d: %s deviates from serial ApplyUniformRX by %g", k, vt.name, d)
				}
			}
		})
	}
}

// TestPoolApplyXYConcurrent pins the SU(4) xy kernel on random qubit
// pairs under a shared pool, in both layouts.
func TestPoolApplyXYConcurrent(t *testing.T) {
	const n, workers = 11, 8
	pool := NewPool(4)
	pool.minParallel = 1

	rng := rand.New(rand.NewSource(29))
	type job struct {
		vec  Vec
		soa  *split[float64]
		want Vec
		i, j int
		beta float64
	}
	jobs := make([]job, workers)
	for k := range jobs {
		v := randomVec(rng, n)
		i := rng.Intn(n)
		j := (i + 1 + rng.Intn(n-1)) % n
		beta := rng.Float64() * 2
		jobs[k] = job{vec: v.Clone(), soa: splitOf[float64](v), want: v.Clone(), i: i, j: j, beta: beta}
		ApplyXY(jobs[k].want, i, j, beta) // serial reference
	}

	concurrently(workers, func(id int) {
		j := &jobs[id]
		pool.ApplyXY(j.vec, j.i, j.j, j.beta)
		ApplyXYPlanes(pool, j.soa.Re, j.soa.Im, j.i, j.j, j.beta)
	})

	for k, j := range jobs {
		if d := MaxAbsDiff(j.vec, j.want); d != 0 {
			t.Errorf("worker %d: pool ApplyXY(%d,%d) deviates from serial by %g", k, j.i, j.j, d)
		}
		if d := MaxAbsDiff(toVec(j.soa.Re, j.soa.Im), j.want); d != 0 {
			t.Errorf("worker %d: SoA ApplyXY(%d,%d) deviates from serial by %g", k, j.i, j.j, d)
		}
	}
}

// TestPoolReduceConcurrent pins the reductions (ExpectationDiag,
// NormSquared) that close every evaluation: concurrent shared-pool
// reductions on SoA and SoA32 must be deterministic (fixed chunking,
// fixed partial order) and equal the same reduction run alone.
func TestPoolReduceConcurrent(t *testing.T) {
	const n, workers = 11, 8
	pool := NewPool(4)
	pool.minParallel = 1

	rng := rand.New(rand.NewSource(31))
	v := randomVec(rng, n)
	soa, soa32 := splitOf[float64](v), splitOf[float32](v)
	diag := make([]float64, len(v))
	for i := range diag {
		diag[i] = rng.NormFloat64()
	}
	want := [2][2]float64{
		{ExpectationPlanes(pool, soa.Re, soa.Im, Phase{Diag: diag}), normSquared(pool, soa.Re, soa.Im)},
		{ExpectationPlanes(pool, soa32.Re, soa32.Im, Phase{Diag: diag}), normSquared(pool, soa32.Re, soa32.Im)},
	}

	results := make([][2]float64, workers)
	concurrently(workers, func(id int) {
		if id%2 == 0 {
			results[id] = [2]float64{ExpectationPlanes(pool, soa.Re, soa.Im, Phase{Diag: diag}), normSquared(pool, soa.Re, soa.Im)}
		} else {
			results[id] = [2]float64{ExpectationPlanes(pool, soa32.Re, soa32.Im, Phase{Diag: diag}), normSquared(pool, soa32.Re, soa32.Im)}
		}
	})
	for k, r := range results {
		w := want[k%2]
		if r[0] != w[0] {
			t.Errorf("worker %d: ExpectationDiag = %v, want %v", k, r[0], w[0])
		}
		if r[1] != w[1] {
			t.Errorf("worker %d: NormSquared = %v, want %v", k, r[1], w[1])
		}
	}
}

// TestPoolSharedAcrossSizes guards the chunking logic itself: many
// goroutines driving one pool with different index-space sizes at
// once (the mixed-depth sweep case) must each see exactly their own
// range covered, exactly once.
func TestPoolSharedAcrossSizes(t *testing.T) {
	pool := NewPool(4)
	pool.minParallel = 1
	concurrently(16, func(id int) {
		size := 1 + id*537
		hits := make([]int32, size)
		pool.Run(size, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Errorf("worker %d: index %d covered %d times", id, i, h)
				return
			}
		}
	})
}
