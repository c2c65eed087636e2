package sampling

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

// draw tallies k draws of s by index.
func draw(s *Sampler, k int) map[uint64]int {
	counts := make(map[uint64]int)
	for i := 0; i < k; i++ {
		counts[s.Sample()]++
	}
	return counts
}

func TestNewSamplerValidation(t *testing.T) {
	if _, err := NewSampler(nil, 1); err == nil {
		t.Error("empty distribution accepted")
	}
	if _, err := NewSampler([]float64{0, 0}, 1); err == nil {
		t.Error("zero-total distribution accepted")
	}
	if _, err := NewSampler([]float64{0.5, -0.1}, 1); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := NewSampler([]float64{0.5, math.NaN()}, 1); err == nil {
		t.Error("NaN probability accepted")
	}
}

func TestPointMass(t *testing.T) {
	s, err := NewSampler([]float64{0, 0, 1, 0}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := s.Sample(); got != 2 {
			t.Fatalf("point mass sampled %d", got)
		}
	}
}

func TestFrequenciesMatchDistribution(t *testing.T) {
	probs := []float64{0.1, 0.2, 0.3, 0.4}
	s, err := NewSampler(probs, 42)
	if err != nil {
		t.Fatal(err)
	}
	const shots = 200000
	counts := draw(s, shots)
	for i, want := range probs {
		got := float64(counts[uint64(i)]) / shots
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d: frequency %.4f, want %.2f", i, got, want)
		}
	}
}

func TestUnnormalizedInputAccepted(t *testing.T) {
	// |ψ|² vectors may be slightly unnormalized; the sampler rescales.
	s, err := NewSampler([]float64{2, 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := draw(s, 100000)
	frac := float64(counts[1]) / 100000
	if math.Abs(frac-0.75) > 0.01 {
		t.Errorf("frequency of index 1 = %.4f, want 0.75", frac)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	probs := []float64{0.25, 0.25, 0.5}
	a, _ := NewSampler(probs, 9)
	b, _ := NewSampler(probs, 9)
	for i := 0; i < 50; i++ {
		if a.Sample() != b.Sample() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestEstimateExpectation(t *testing.T) {
	// Exact over a deterministic sample set.
	samples := []uint64{0, 0, 1, 1}
	cost := func(x uint64) float64 { return float64(x) * 10 }
	mean, stderr := EstimateExpectation(samples, cost)
	if mean != 5 {
		t.Errorf("mean = %v, want 5", mean)
	}
	// variance = (0-5)²·4/3... sample variance of {0,0,10,10} = 100/3,
	// stderr = sqrt(100/3/4) = 2.886..
	if math.Abs(stderr-math.Sqrt(100.0/3/4)) > 1e-12 {
		t.Errorf("stderr = %v", stderr)
	}
	if m, s := EstimateExpectation(nil, cost); m != 0 || s != 0 {
		t.Error("empty samples must return zeros")
	}
}

func TestEstimateConvergesToTrueExpectation(t *testing.T) {
	probs := []float64{0.5, 0, 0, 0.5} // cost 0 and 3 equally likely
	s, _ := NewSampler(probs, 11)
	cost := func(x uint64) float64 { return float64(x) }
	samples := make([]uint64, 50000)
	for i := range samples {
		samples[i] = s.Sample()
	}
	mean, stderr := EstimateExpectation(samples, cost)
	if math.Abs(mean-1.5) > 5*stderr+0.05 {
		t.Errorf("mean %v ± %v far from 1.5", mean, stderr)
	}
}

func TestSamplesToSolution(t *testing.T) {
	// p = 0.5, confidence 0.99: N = ln(0.01)/ln(0.5) ≈ 6.64.
	got, err := SamplesToSolution(0.5, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Log(0.01)/math.Log(0.5)) > 1e-12 {
		t.Errorf("N = %v", got)
	}
	if v, err := SamplesToSolution(0, 0.99); err != nil || !math.IsInf(v, 1) {
		t.Errorf("overlap 0 must need infinite samples (got %v, %v)", v, err)
	}
	if v, err := SamplesToSolution(1, 0.99); err != nil || v != 1 {
		t.Errorf("overlap 1 must need one sample (got %v, %v)", v, err)
	}
	// Monotone: higher overlap, fewer samples.
	lo, err1 := SamplesToSolution(0.2, 0.9)
	hi, err2 := SamplesToSolution(0.4, 0.9)
	if err1 != nil || err2 != nil || lo <= hi {
		t.Error("SamplesToSolution not decreasing in overlap")
	}
}

func TestSamplesToSolutionRejectsBadInputs(t *testing.T) {
	// NaN overlap must not slip through the ≤0 / ≥1 guards.
	if _, err := SamplesToSolution(math.NaN(), 0.99); err == nil {
		t.Error("NaN overlap accepted")
	}
	// Out-of-range confidence errors instead of defaulting to 0.99.
	for _, conf := range []float64{-1, 0, 1, 2, math.NaN()} {
		if _, err := SamplesToSolution(0.3, conf); err == nil {
			t.Errorf("confidence %v accepted", conf)
		}
	}
}

func TestEstimateExpectationLargeOffset(t *testing.T) {
	// Regression: with a 1e8 constant offset the old sumSq − sum²/n
	// form lost all significant digits of the variance (stderr came
	// back 0 or garbage); Welford's update keeps the offset-free value.
	const offset = 1e8
	samples := make([]uint64, 0, 10000)
	for i := 0; i < 5000; i++ {
		samples = append(samples, 0, 1)
	}
	base := func(x uint64) float64 { return float64(x) * 10 }
	shifted := func(x uint64) float64 { return base(x) + offset }
	meanB, stderrB := EstimateExpectation(samples, base)
	meanS, stderrS := EstimateExpectation(samples, shifted)
	if math.Abs(meanS-offset-meanB) > 1e-6 {
		t.Errorf("shifted mean %v, want %v", meanS, meanB+offset)
	}
	if stderrB <= 0 {
		t.Fatalf("base stderr = %v, want > 0", stderrB)
	}
	if math.Abs(stderrS-stderrB)/stderrB > 1e-6 {
		t.Errorf("stderr not offset-invariant: %v vs %v", stderrS, stderrB)
	}
}

// TestSamplerBuildBytes bounds what NewSampler allocates: the prob and
// alias tables and one shared worklist, 24 B per entry, plus the
// seeded source.
func TestSamplerBuildBytes(t *testing.T) {
	const n = 1 << 14
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = float64(i%7) + 0.5
	}
	var before, after runtime.MemStats
	least := uint64(math.MaxUint64)
	for rep := 0; rep < 3; rep++ {
		runtime.ReadMemStats(&before)
		if _, err := NewSampler(probs, int64(rep)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b < least {
			least = b
		}
	}
	if limit := uint64(24*n + 8<<10); least > limit {
		t.Errorf("NewSampler over %d entries allocated %d B, want ≤ %d (24 B per entry + 8 KiB)", n, least, limit)
	}
}

// Property (testing/quick): samples always index into the support.
func TestQuickSamplesInRange(t *testing.T) {
	f := func(seed int64, raw [6]uint8) bool {
		probs := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			probs[i] = float64(r)
			total += probs[i]
		}
		if total == 0 {
			return true
		}
		s, err := NewSampler(probs, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 64; i++ {
			x := s.Sample()
			if x >= uint64(len(probs)) || probs[x] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
