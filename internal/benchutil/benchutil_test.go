package benchutil

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"qokit/internal/core"
	"qokit/internal/poly"
	"qokit/internal/problems"
)

// TestRecomputeEnergyMatchesSerial pins the Fig. 2 baseline to the
// Serial simulator bit for bit, on both sides of the phase-table rule:
// LABS n = 7 and SK n = 10 take per-amplitude sincos of the cached
// diagonal, LABS n = 14 gathers from a level table whose entries are the
// sincos of the same float64 values. RecomputeEnergy re-derives f(x)
// from the terms, so equality here is also the end-to-end pin that the
// precomputed diagonal and its table change nothing but the cost.
func TestRecomputeEnergyMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, c := range []struct {
		name  string
		n     int
		terms poly.Terms
	}{
		{"labs", 7, problems.LABSTerms(7)},
		{"labs", 14, problems.LABSTerms(14)},
		{"sk", 10, problems.SKTerms(10, 44)},
	} {
		gamma, beta := make([]float64, 3), make([]float64, 3)
		for l := range gamma {
			gamma[l], beta[l] = rng.Float64()*2-1, rng.Float64()*2-1
		}
		sim, err := core.New(c.n, c.terms, core.Options{Backend: core.BackendSerial})
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		want := r.Expectation()
		if got := RecomputeEnergy(c.n, poly.Compile(c.terms), gamma, beta); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s n=%d: RecomputeEnergy = %v, Serial Expectation = %v", c.name, c.n, got, want)
		}
	}
}

func TestMedianAndMin(t *testing.T) {
	ds := []time.Duration{5, 1, 3, 2, 4}
	if Median(ds) != 3 {
		t.Errorf("Median = %v", Median(ds))
	}
	if Min(ds) != 1 {
		t.Errorf("Min = %v", Min(ds))
	}
	even := []time.Duration{4, 1, 3, 2}
	if Median(even) != 2 {
		t.Errorf("even Median = %v", Median(even))
	}
	if Median(nil) != 0 || Min(nil) != 0 {
		t.Error("empty slices must return 0")
	}
}

func TestTimeRepeat(t *testing.T) {
	calls := 0
	med, min := TimeRepeat(5, func() { calls++ })
	if calls != 5 {
		t.Errorf("fn called %d times", calls)
	}
	if min > med {
		t.Errorf("min %v > median %v", min, med)
	}
	TimeRepeat(0, func() { calls++ })
	if calls != 6 {
		t.Error("reps<1 must still run once")
	}
}

func TestSeconds(t *testing.T) {
	if s := Seconds(1500 * time.Millisecond); s != "1.5" {
		t.Errorf("Seconds = %q", s)
	}
	if s := Seconds(123 * time.Microsecond); s != "0.000123" {
		t.Errorf("Seconds = %q", s)
	}
}

func TestTableAlignment(t *testing.T) {
	tab := NewTable("name", "value")
	tab.Add("x", "1")
	tab.Add("longer-name", "22")
	tab.Addf("fmt\t%d", 7)
	var b strings.Builder
	tab.Fprint(&b)
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Errorf("header line %q", lines[0])
	}
	if !strings.Contains(lines[4], "fmt") || !strings.Contains(lines[4], "7") {
		t.Errorf("Addf row %q", lines[4])
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("a", "b")
	tab.Add("1", "2")
	var b strings.Builder
	tab.FprintCSV(&b)
	if b.String() != "a,b\n1,2\n" {
		t.Errorf("CSV = %q", b.String())
	}
}

func TestFitExpRate(t *testing.T) {
	// y = 3·1.5^x fits exactly.
	xs := []float64{8, 10, 12, 14, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * pow(1.5, x)
	}
	base, r2 := FitExpRate(xs, ys)
	if base < 1.499 || base > 1.501 {
		t.Errorf("base = %v, want 1.5", base)
	}
	if r2 < 0.9999 {
		t.Errorf("r² = %v", r2)
	}
	// Degenerate inputs.
	if b, _ := FitExpRate([]float64{1}, []float64{2}); b != 0 {
		t.Errorf("single point fit = %v", b)
	}
	if b, _ := FitExpRate([]float64{1, 2}, []float64{-1, -2}); b != 0 {
		t.Errorf("non-positive ys fit = %v", b)
	}
}

func pow(b, x float64) float64 {
	r := 1.0
	for i := 0; i < int(x); i++ {
		r *= b
	}
	return r
}

func TestSeries(t *testing.T) {
	s := Series{Name: "qokit"}
	s.Add(6, 0.001)
	s.AddNote(30, 12.5, "capped")
	var b strings.Builder
	FprintSeries(&b, "n", "seconds", []Series{s})
	out := b.String()
	for _, want := range []string{"series", "qokit", "capped", "12.5", "seconds"} {
		if !strings.Contains(out, want) {
			t.Errorf("series output missing %q:\n%s", want, out)
		}
	}
}
