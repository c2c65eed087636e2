package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

// withForm rebuilds s over the same stored entries held another way:
// float64 entries alone (per-amplitude sincos, float64 reductions), or
// float64 entries beside the codes (table phases, float64 reductions).
func withForm(t *testing.T, s *Simulator, codes bool) *Simulator {
	t.Helper()
	entries := make([]float64, s.eng.Len())
	for i := range entries {
		entries[i] = s.eng.Form().Value(i)
	}
	form := &costvec.Stored{N: s.n, Pivots: s.eng.Form().Pivots, Flip: s.eng.Form().Flip, Diag: entries}
	if codes {
		form.Codes = s.eng.Form().Codes
	}
	f, err := newSimulator(s.n, form, s.opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// evalBits returns the bits of everything a simulator serves at x: the
// energy, the gradient, every EvalOutputs field, a stream of shots,
// the cost diagonal and the ground states.
func evalBits(t *testing.T, s *Simulator, x []float64) []uint64 {
	t.Helper()
	ctx := context.Background()
	w := s.NewWorkspace()
	var out []uint64
	f := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	e, err := w.Energy(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	grad := make([]float64, len(x))
	eg, err := w.EnergyGrad(ctx, x, grad)
	if err != nil {
		t.Fatal(err)
	}
	f(e, eg)
	f(grad...)
	spec := evaluator.OutputSpec{
		CVaRAlphas: []float64{1, 0.5, 0.1}, Shots: 300, Seed: 3, Variance: true,
		ProbIndices: []uint64{0, 3, 1<<uint(s.n) - 1},
	}
	o, err := w.EvalOutputs(ctx, x, spec)
	if err != nil {
		t.Fatal(err)
	}
	f(o.Energy, o.Overlap, o.MinCost, o.MaxProb, o.Variance)
	f(o.CVaR...)
	f(o.Probs...)
	out = append(out, o.MaxProbIndex)
	out = append(out, o.Samples...)
	err = w.StreamSamples(ctx, x, evaluator.OutputSpec{Shots: 5000, Seed: 9}, func(chunk []uint64) error {
		out = append(out, chunk...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f(s.CostDiagonal()...)
	f(s.MinCost())
	return append(out, s.GroundStates()...)
}

// TestSimulatorCostFormsMatchBitwise is the single-node cost-form
// matrix: a simulator holding its stored entries as uint16 codes alone
// (what an exact grid takes) serves the same energies, gradients,
// outputs, shots, cost diagonal and ground states bit for bit as one
// holding float64 entries beside the codes and one holding float64
// entries alone, on SoA and SoA32 at Workers 1 and 2, over group states
// (LABS quarter, MaxCut half) and full states (the xy-ring mixer, an
// explicit start) at p ∈ {1, 4}. Min + Scale·code equals the float64
// entry bitwise, and each table entry is the sincos of that entry.
func TestSimulatorCostFormsMatchBitwise(t *testing.T) {
	g, err := graphs.RandomRegular(12, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(83))
	for _, c := range []struct {
		name  string
		n     int
		terms poly.Terms
		opts  Options
		h     int
	}{
		{"labs n=14", 14, problems.LABSTerms(14), Options{}, 2},
		{"maxcut n=12", 12, problems.MaxCutTerms(g), Options{}, 1},
		{"maxcut n=12 xy-ring", 12, problems.MaxCutTerms(g), Options{Mixer: MixerXYRing}, 0},
		{"maxcut n=12 explicit start", 12, problems.MaxCutTerms(g), Options{InitialState: statevec.NewUniform(12)}, 0},
	} {
		for _, single := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				opts := c.opts
				opts.SinglePrecision, opts.Workers = single, workers
				label := fmt.Sprintf("%s single=%v workers=%d", c.name, single, workers)
				coded, err := New(c.n, c.terms, opts)
				if err != nil {
					t.Fatal(err)
				}
				requirePivots(t, label, coded, c.h)
				if coded.eng.Form().Diag != nil || coded.eng.Form().Codes == nil {
					t.Fatalf("%s: holds float64 entries %v and codes %v, want codes alone", label, coded.eng.Form().Diag != nil, coded.eng.Form().Codes != nil)
				}
				forms := map[string]*Simulator{"float64 + codes": withForm(t, coded, true), "float64": withForm(t, coded, false)}
				for _, p := range []int{1, 4} {
					gamma, beta := randomAngles(rng, p)
					x := append(append([]float64(nil), gamma...), beta...)
					want := evalBits(t, coded, x)
					for name, s := range forms {
						if got := evalBits(t, s, x); !slices.Equal(got, want) {
							t.Errorf("%s p=%d: %s differs from codes alone", label, p, name)
						}
					}
				}
			}
		}
	}
}

// TestCostDiagonalMatchesPrecompute: whatever a simulator holds — codes
// or float64 entries over a group state's stored indices, or the full
// diagonal — CostDiagonal expands it to the terms' full diagonal bit
// for bit, on every backend and mixer.
func TestCostDiagonalMatchesPrecompute(t *testing.T) {
	const n = 10
	g, err := graphs.RandomRegular(n, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, terms := range map[string]poly.Terms{
		"labs":      problems.LABSTerms(n),
		"labs+z0":   labsZ0(n),
		"maxcut":    problems.MaxCutTerms(g),
		"sk":        skTerms(n, 4),
		"portfolio": problems.SyntheticPortfolio(n, n/2, 0.5, 3).PortfolioTerms(),
	} {
		want := costvec.Precompute(poly.Compile(terms), n)
		for _, opts := range []Options{{}, {SinglePrecision: true}, {Backend: BackendSerial}, {Mixer: MixerXYRing}} {
			s, err := New(n, terms, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.CostDiagonal(); !slices.Equal(got, want) {
				t.Errorf("%s %+v: CostDiagonal differs from Precompute", name, opts)
			}
		}
	}
}

// TestSimulatorRetainsStoredForm: a LABS n = 22 simulator built from
// terms retains its stored form alone, uint16 codes over the 2^20
// quarter-state indices (2 MiB), well under 4 MiB by runtime.MemStats;
// a simulator that kept the full float64 diagonal retained 32 MiB more.
func TestSimulatorRetainsStoredForm(t *testing.T) {
	const n = 22
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(n, problems.LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	requirePivots(t, "labs n=22", s, 2)
	if s.eng.Form().Diag != nil || s.eng.Form().Codes == nil {
		t.Fatalf("labs n=22 holds float64 entries %v and codes %v, want codes alone", s.eng.Form().Diag != nil, s.eng.Form().Codes != nil)
	}
	if retained >= 4<<20 {
		t.Errorf("a LABS n=%d simulator retains %d B, want under 4 MiB", n, retained)
	}
	runtime.KeepAlive(s)
}
