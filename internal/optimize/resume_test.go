package optimize

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// rosenbrockish is a smooth non-quadratic objective whose Adam
// trajectory exercises both moments and the best-so-far tracking.
func rosenbrockish(x, g []float64) float64 {
	f := 0.0
	for j := 0; j+1 < len(x); j++ {
		a := x[j+1] - x[j]*x[j]
		b := 1 - x[j]
		f += 10*a*a + b*b
		g[j] = -40*a*x[j] - 2*b
		g[j+1] += 20 * a
	}
	// g is accumulated, so zero it first on entry.
	return f
}

func rosenGrad(x, g []float64) float64 {
	for j := range g {
		g[j] = 0
	}
	return rosenbrockish(x, g)
}

// TestAdamResumeBitIdentical checkpoints through disk at iteration k
// and asserts the resumed run's result is bit-identical to an
// uninterrupted run — the optimizer half of the durability contract.
func TestAdamResumeBitIdentical(t *testing.T) {
	x0 := []float64{-1.2, 1.0, 0.7, -0.3}
	const kHalf, kFull = 9, 25
	opts := AdamOptions{MaxIter: kFull, Step: 0.08}

	full := Adam(rosenGrad, x0, opts)
	if full.Err != nil {
		t.Fatal(full.Err)
	}

	path := filepath.Join(t.TempDir(), "adam.ckpt")
	half := opts
	half.MaxIter = kHalf
	half.Checkpoint = func(st *AdamState) error { return SaveAdamState(path, st) }
	if r := Adam(rosenGrad, x0, half); r.Err != nil {
		t.Fatal(r.Err)
	}

	st, err := LoadAdamState(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != kHalf {
		t.Fatalf("checkpoint at iter %d, want %d", st.Iter, kHalf)
	}
	resumed := Adam(rosenGrad, x0, AdamOptions{MaxIter: kFull, Step: 0.08, Resume: st})
	if resumed.Err != nil {
		t.Fatal(resumed.Err)
	}

	if resumed.Iters != full.Iters || resumed.Evals != full.Evals {
		t.Errorf("counters: resumed (%d iters, %d evals) vs full (%d, %d)",
			resumed.Iters, resumed.Evals, full.Iters, full.Evals)
	}
	if math.Float64bits(resumed.F) != math.Float64bits(full.F) {
		t.Errorf("F: resumed %v vs full %v (bits differ)", resumed.F, full.F)
	}
	for j := range full.X {
		if math.Float64bits(resumed.X[j]) != math.Float64bits(full.X[j]) {
			t.Errorf("X[%d]: resumed %v vs full %v (bits differ)", j, resumed.X[j], full.X[j])
		}
	}
}

// TestAdamStateRoundTrip covers the codec directly, including the
// non-finite BestF a fresh checkpoint can carry.
func TestAdamStateRoundTrip(t *testing.T) {
	st := &AdamState{
		X:     []float64{1, -2, 3},
		M:     []float64{0.1, 0.2, -0.3},
		V:     []float64{1e-4, 2e-4, 3e-4},
		B1t:   0.9 * 0.9,
		B2t:   0.999,
		Iter:  17,
		BestX: []float64{0.5, 0.5, 0.5},
		BestF: math.Inf(1),
		Evals: 21,
	}
	got, err := DecodeAdamState(st.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != st.Iter || got.Evals != st.Evals ||
		math.Float64bits(got.B1t) != math.Float64bits(st.B1t) ||
		math.Float64bits(got.B2t) != math.Float64bits(st.B2t) ||
		!math.IsInf(got.BestF, 1) {
		t.Fatalf("scalar mismatch: %+v vs %+v", got, st)
	}
	for j := range st.X {
		if got.X[j] != st.X[j] || got.M[j] != st.M[j] || got.V[j] != st.V[j] || got.BestX[j] != st.BestX[j] {
			t.Fatalf("vector mismatch at %d", j)
		}
	}
	if _, err := DecodeAdamState(st.Encode()[:10]); err == nil {
		t.Error("truncated payload accepted")
	}
}

// TestCheckpointErrorStopsRun asserts a failing Checkpoint callback
// halts the loop and surfaces through Err — the mechanism that stops
// Adam from iterating on a latched-error objective.
func TestCheckpointErrorStopsRun(t *testing.T) {
	boom := errors.New("disk full")
	calls := 0
	res := Adam(rosenGrad, []float64{-1.5, 2}, AdamOptions{
		MaxIter: 50,
		Checkpoint: func(st *AdamState) error {
			calls++
			if calls == 3 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(res.Err, boom) {
		t.Fatalf("Err = %v, want %v", res.Err, boom)
	}
	if res.Iters != 3 {
		t.Errorf("stopped after %d iters, want 3", res.Iters)
	}
}

// TestResumeDimensionMismatch asserts a state from a different problem
// is rejected up front instead of silently truncating.
func TestResumeDimensionMismatch(t *testing.T) {
	st := &AdamState{X: []float64{1, 2}, M: []float64{0, 0}, V: []float64{0, 0}, BestX: []float64{1, 2}}
	res := Adam(rosenGrad, []float64{1, 2, 3}, AdamOptions{Resume: st})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "dimension") {
		t.Fatalf("Err = %v, want dimension mismatch", res.Err)
	}
	if res.Evals != 0 {
		t.Errorf("objective was evaluated %d times despite invalid resume", res.Evals)
	}
}
