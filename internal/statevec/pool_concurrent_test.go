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
// Pool, each phasing its own state and SoA copy against its own
// diagonal; both layouts must match the serial kernel exactly.
func TestPoolPhaseDiagConcurrent(t *testing.T) {
	const n, workers = 11, 8
	pool := NewPool(4)
	pool.minParallel = 1 // force the parallel code path at 2^11 amplitudes

	type job struct {
		vec   Vec
		soa   *SoA
		want  Vec
		diag  []float64
		gamma float64
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
			vec:   v.Clone(),
			soa:   SoAFromVec(v),
			want:  v.Clone(),
			diag:  diag,
			gamma: rng.Float64(),
		}
		PhaseDiag(jobs[k].want, diag, jobs[k].gamma) // serial reference
	}

	concurrently(workers, func(id int) {
		j := &jobs[id]
		pool.ApplyPhase(j.vec, Phase{Diag: j.diag, Gamma: j.gamma})
		j.soa.PhaseDiag(pool, j.diag, j.gamma)
	})

	for k, j := range jobs {
		if d := MaxAbsDiff(j.vec, j.want); d != 0 {
			t.Errorf("worker %d: pool PhaseDiag deviates from serial by %g", k, d)
		}
		if d := MaxAbsDiff(j.soa.ToVec(), j.want); d != 0 {
			t.Errorf("worker %d: SoA PhaseDiag deviates from serial by %g", k, d)
		}
	}
}

// TestPoolApplyUniformRXConcurrent pins the mixer sweep (plain and
// fused, complex and SoA layouts) under a shared pool.
func TestPoolApplyUniformRXConcurrent(t *testing.T) {
	const n, workers = 11, 8
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
		apply func(v Vec, soa *SoA, beta float64)
	}{
		{"pool", func(v Vec, _ *SoA, beta float64) { pool.ApplyUniformRX(v, beta) }},
		{"pool-fused", func(v Vec, _ *SoA, beta float64) { pool.ApplyUniformRXFused(v, beta) }},
		{"soa", func(_ Vec, s *SoA, beta float64) { s.ApplyUniformRX(pool, beta) }},
		{"soa-fused", func(_ Vec, s *SoA, beta float64) { s.ApplyUniformRXFused(pool, beta) }},
	}
	for _, vt := range variants {
		t.Run(vt.name, func(t *testing.T) {
			vecs := make([]Vec, workers)
			soas := make([]*SoA, workers)
			for k := range vecs {
				vecs[k] = inputs[k].Clone()
				soas[k] = SoAFromVec(inputs[k])
			}
			concurrently(workers, func(id int) {
				vt.apply(vecs[id], soas[id], betas[id])
			})
			for k := 0; k < workers; k++ {
				got := vecs[k]
				if vt.name == "soa" || vt.name == "soa-fused" {
					got = soas[k].ToVec()
				}
				// The fused sweeps reassociate the arithmetic, so allow
				// a few ULPs there; unfused must match exactly.
				tol := 0.0
				if vt.name == "pool-fused" || vt.name == "soa-fused" {
					tol = 1e-14
				}
				if d := MaxAbsDiff(got, wants[k]); d > tol {
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
		soa  *SoA
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
		jobs[k] = job{vec: v.Clone(), soa: SoAFromVec(v), want: v.Clone(), i: i, j: j, beta: beta}
		ApplyXY(jobs[k].want, i, j, beta) // serial reference
	}

	concurrently(workers, func(id int) {
		j := &jobs[id]
		pool.ApplyXY(j.vec, j.i, j.j, j.beta)
		j.soa.ApplyXY(pool, j.i, j.j, j.beta)
	})

	for k, j := range jobs {
		if d := MaxAbsDiff(j.vec, j.want); d != 0 {
			t.Errorf("worker %d: pool ApplyXY(%d,%d) deviates from serial by %g", k, j.i, j.j, d)
		}
		if d := MaxAbsDiff(j.soa.ToVec(), j.want); d != 0 {
			t.Errorf("worker %d: SoA ApplyXY(%d,%d) deviates from serial by %g", k, j.i, j.j, d)
		}
	}
}

// TestPoolReduceConcurrent pins the reductions (ExpectationDiag,
// NormSquared) that close every sweep evaluation: concurrent shared-
// pool reductions must be deterministic (fixed chunking, fixed partial
// order) and equal to the serial sum.
func TestPoolReduceConcurrent(t *testing.T) {
	const n, workers = 11, 8
	pool := NewPool(4)
	pool.minParallel = 1

	rng := rand.New(rand.NewSource(31))
	v := randomVec(rng, n)
	soa := SoAFromVec(v)
	diag := make([]float64, len(v))
	for i := range diag {
		diag[i] = rng.NormFloat64()
	}
	wantE := pool.ExpectationDiag(v, diag)
	wantN := pool.NormSquared(v)

	results := make([][2]float64, workers)
	concurrently(workers, func(id int) {
		var e, nn float64
		if id%2 == 0 {
			e = pool.ExpectationDiag(v, diag)
			nn = pool.NormSquared(v)
		} else {
			e = soa.ExpectationDiag(pool, diag)
			nn = soa.NormSquared(pool)
		}
		results[id] = [2]float64{e, nn}
	})
	for k, r := range results {
		if r[0] != wantE {
			t.Errorf("worker %d: ExpectationDiag = %v, want %v", k, r[0], wantE)
		}
		if r[1] != wantN {
			t.Errorf("worker %d: NormSquared = %v, want %v", k, r[1], wantN)
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
