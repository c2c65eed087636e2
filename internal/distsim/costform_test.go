package distsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qokit/internal/cluster"
	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/registry"
	"qokit/internal/shard"
)

// costForm is one way an engine can hold its stored cost form, which
// every rank windows.
type costForm int

const (
	// codesOnly keeps the uint16 codes alone: what the form's rule
	// picks for an exact grid within the table bound.
	codesOnly costForm = iota
	// float64AndCodes keeps the float64 entries beside the codes: table
	// phases, float64 reductions.
	float64AndCodes
	// float64Only keeps the float64 entries: per-amplitude sincos.
	float64Only
)

func (f costForm) String() string {
	return [...]string{"codes only", "float64 + codes", "float64 only"}[f]
}

// formEngine builds an engine whose stored cost form, and so every
// rank's window of it, is held in form, over the group NewGradEngine
// picks. The codes are taken at any number of levels, so every grid
// cost has all three forms.
func formEngine(t *testing.T, n int, terms poly.Terms, opts Options, form costForm) *GradEngine {
	t.Helper()
	k, err := opts.validate(n)
	if err != nil {
		t.Fatal(err)
	}
	compiled := poly.Compile(terms)
	pivots, flip := costvec.TermPivots(n, compiled.Masks)
	sym := shard.SymmetryFor(pivots, flip, n, k, opts.Mixer == core.MixerX)
	entries := make([]float64, 1<<uint(n-len(sym.Pivots)))
	costvec.PrecomputeRange(compiled, 0, entries)
	stored := &costvec.Stored{N: n, Pivots: sym.Pivots, Flip: flip}
	if form != codesOnly {
		stored.Diag = entries
	}
	if form != float64Only {
		q, err := costvec.QuantizeExact(entries, 1<<16)
		if err != nil {
			t.Fatalf("the stored entries are not an exact grid: %v", err)
		}
		stored.Codes = q
	}
	se, err := shardEngine(n, opts, sym, stored)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(n, opts, se)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// rankEntry returns entry i of rank r's cost window, as the kernels
// read it.
func rankEntry(e *GradEngine, r, i int) float64 {
	ph := e.eng.Phase(r, 0, nil)
	if ph.Diag != nil {
		return ph.Diag[i]
	}
	return ph.Min + ph.Scale*float64(ph.Codes[i])
}

// registrySource leases a registered problem's stored form.
func registrySource(reg *registry.Registry, key registry.Key) core.AcquireFunc {
	return func(ctx context.Context) (core.DiagSource, error) {
		h, err := reg.Acquire(ctx, key)
		if err != nil {
			return nil, err
		}
		return h, nil
	}
}

// coded reports whether e's stored cost form, and so every rank's
// window of it, holds codes alone.
func coded(e *GradEngine) bool {
	form := e.eng.Form()
	for r := 0; r < e.Ranks(); r++ {
		if ph := e.eng.Phase(r, 0, nil); ph.Diag != nil || ph.Codes == nil {
			return false
		}
	}
	return form.Diag == nil && form.Codes != nil
}

// codedProblem is 3-regular MaxCut on 10 vertices: its stored entries
// are an exact grid within the table bound, so NewGradEngine keeps
// their codes alone at every K.
func codedProblem(t *testing.T) (int, poly.Terms) {
	t.Helper()
	g, err := graphs.RandomRegular(10, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	return 10, problems.MaxCutTerms(g)
}

// TestShardCostFormsMatchBitwise is the cost-form acceptance matrix:
// rank windows held as codes alone, as float64 entries beside the codes,
// or as float64 entries alone give the same energies, gradients,
// traffic and EvalOutputs (CVaR, probabilities, variance, buffered and
// streamed shots) bit for bit, and order their slices by cost alike,
// over K ∈ {1, 2, 4, 8} × {x, xy-ring} × p ∈ {1, 4, 12} ×
// float64/float32, on group shards (LABS with x: quarter shards at
// K ≤ 4, half shards at K = 8) and full shards (LABS with xy-ring,
// LABS + Z₀ + Z₁). Min + Scale·code equals
// the float64 entry bitwise, every reader forms that same value, and a
// table entry is the sincos of the float64 entry.
func TestShardCostFormsMatchBitwise(t *testing.T) {
	const n = 8
	ctx := context.Background()
	rng := rand.New(rand.NewSource(91))
	queries := []uint64{0, 7, 1 << (n - 1), 1<<n - 1}
	for _, prob := range []struct {
		name  string
		terms poly.Terms
	}{{"labs", problems.LABSTerms(n)}, {"labs+z0+z1", fixedCost(n)}} {
		for _, mixer := range []core.Mixer{core.MixerX, core.MixerXYRing} {
			for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
				for _, ranks := range []int{1, 2, 4, 8} {
					opts := Options{Ranks: ranks, Algo: cluster.Transpose, Mixer: mixer, Precision: prec}
					var engs [3]*GradEngine
					for f := range engs {
						engs[f] = formEngine(t, n, prob.terms, opts, costForm(f))
					}
					// The counting sort of coded slices orders like the
					// comparison sort of float64 slices.
					for r := 0; r < ranks; r++ {
						a, b := engs[codesOnly].eng.Ascending(r), engs[float64Only].eng.Ascending(r)
						for i := range a {
							if a[i] != b[i] {
								t.Errorf("%s %v K=%d rank %d: cost order differs at %d: %d vs %d", prob.name, mixer, ranks, r, i, a[i], b[i])
								break
							}
						}
					}
					for _, p := range []int{1, 4, 12} {
						gamma, beta := randomAngles(rng, p)
						x := append(append([]float64(nil), gamma...), beta...)
						spec := evaluator.OutputSpec{
							CVaRAlphas: []float64{1, 0.5, 0.1}, ProbIndices: queries, Variance: true,
							Shots: 500, Seed: int64(p),
						}
						where := fmt.Sprintf("%s %v %v K=%d p=%d", prob.name, mixer, prec, ranks, p)
						var ref halfEval
						var refE float64
						var refC cluster.Counters
						for f, eng := range engs {
							before := eng.Counters()
							e, err := eng.Energy(ctx, x)
							if err != nil {
								t.Fatal(err)
							}
							got := evalAll(t, eng, x, spec)
							after := eng.Counters()
							c := cluster.Counters{
								BytesSent: after.BytesSent - before.BytesSent,
								Messages:  after.Messages - before.Messages,
								Syncs:     after.Syncs - before.Syncs,
							}
							if f == 0 {
								ref, refE, refC = got, e, c
								continue
							}
							if e != refE {
								t.Errorf("%s: %v energy %v, %v %v", where, costForm(f), e, codesOnly, refE)
							}
							if err := sameEval(got, ref); err != nil {
								t.Errorf("%s: %v differs from %v: %v", where, costForm(f), codesOnly, err)
							}
							if len(got.stream) != len(ref.stream) {
								t.Errorf("%s: %v streamed %d shots, %v %d", where, costForm(f), len(got.stream), codesOnly, len(ref.stream))
							}
							for i := range got.stream {
								if i < len(ref.stream) && got.stream[i] != ref.stream[i] {
									t.Errorf("%s: %v streamed shot %d = %d, %v %d", where, costForm(f), i, got.stream[i], codesOnly, ref.stream[i])
									break
								}
							}
							if c != refC {
								t.Errorf("%s: %v traffic %+v, %v %+v", where, costForm(f), c, codesOnly, refC)
							}
						}
					}
				}
			}
		}
	}
}

// TestCodedShardRule pins which engines keep their cost as uint16
// codes alone: those whose stored cost form is an exact grid within the
// form's one bound, 2^n/costvec.PhaseTableRatio levels, the rule the
// single-node simulator applies; every rank reads its window of the
// form. LABS n = 16 at K = 2 (1217 levels, bound 4096), LABS n = 14 at
// K = 4 (801 levels, bound 1024) and 3-regular MaxCut n = 12 at K = 4
// hold no float64 entries; SK keeps its float64 entries and no codes.
// NewGradEngine and a Factory over a registry handle decide alike.
func TestCodedShardRule(t *testing.T) {
	ctx := context.Background()
	g, err := graphs.RandomRegular(12, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Options{})
	for _, tc := range []struct {
		name  string
		n     int
		terms poly.Terms
		ranks int
		h     int
		coded bool
	}{
		{"labs n=16 K=2", 16, problems.LABSTerms(16), 2, 2, true},
		{"maxcut n=12 K=4", 12, problems.MaxCutTerms(g), 4, 1, true},
		{"labs n=14 K=4", 14, problems.LABSTerms(14), 4, 2, true},
		{"sk n=10 K=2", 10, problems.SKTerms(10, 6), 2, 1, false},
	} {
		opts := Options{Ranks: tc.ranks}
		eng, err := NewGradEngine(tc.n, tc.terms, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		key, err := reg.Register(registry.Spec{N: tc.n, Terms: tc.terms})
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFactoryFromSource(tc.n, tc.terms, opts, registrySource(reg, key))
		if err != nil {
			t.Fatal(err)
		}
		built, err := f.NewGradEngine(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for src, e := range map[string]*GradEngine{"NewGradEngine": eng, "registry Factory": built} {
			if h := e.pivots(); h != tc.h {
				t.Errorf("%s %s: stores the state over h = %d pivots, want %d", tc.name, src, h, tc.h)
			}
			for r := 0; r < tc.ranks; r++ {
				if ph := e.eng.Phase(r, 0, nil); (ph.Diag == nil) != tc.coded || (ph.Codes != nil) != tc.coded {
					t.Errorf("%s %s rank %d: float64 window %v, codes %v; want codes alone %v",
						tc.name, src, r, ph.Diag != nil, ph.Codes != nil, tc.coded)
				}
			}
		}
		if err := f.Retire(built); err != nil {
			t.Fatal(err)
		}
	}
	n, terms := codedProblem(t)
	for _, ranks := range []int{1, 2, 4} {
		eng, err := NewGradEngine(n, terms, Options{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		if !coded(eng) {
			t.Errorf("codedProblem at K=%d keeps a float64 slice", ranks)
		}
	}
}

// TestRankSlicesMatchPrecompute: every rank's window of the stored cost
// form, precomputed from the terms (NewGradEngine) or a registry entry's
// (a registry Factory), coded or float64, holds the full diagonal's
// entries at its stored indices bit for bit, on group and full shards.
func TestRankSlicesMatchPrecompute(t *testing.T) {
	ctx := context.Background()
	reg := registry.New(registry.Options{})
	for _, tc := range []struct {
		name  string
		n     int
		terms poly.Terms
		opts  Options
	}{
		{"labs n=16 K=2", 16, problems.LABSTerms(16), Options{Ranks: 2}},
		{"labs n=14 K=4", 14, problems.LABSTerms(14), Options{Ranks: 4}},
		{"labs n=10 K=8 (complement)", 10, problems.LABSTerms(10), Options{Ranks: 8}},
		{"sk n=10 K=2", 10, problems.SKTerms(10, 6), Options{Ranks: 2}},
		{"labs+z0+z1 n=10 K=4", 10, fixedCost(10), Options{Ranks: 4}},
		{"labs n=10 K=2 xy-ring", 10, problems.LABSTerms(10), Options{Ranks: 2, Mixer: core.MixerXYRing}},
	} {
		want := costvec.Precompute(poly.Compile(tc.terms), tc.n)
		eng, err := NewGradEngine(tc.n, tc.terms, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		key, err := reg.Register(registry.Spec{N: tc.n, Terms: tc.terms, Mixer: tc.opts.Mixer})
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFactoryFromSource(tc.n, tc.terms, tc.opts, registrySource(reg, key))
		if err != nil {
			t.Fatal(err)
		}
		built, err := f.NewGradEngine(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for src, e := range map[string]*GradEngine{"NewGradEngine": eng, "registry Factory": built} {
			size := e.eng.Len()
			for r := 0; r < e.Ranks(); r++ {
				for i := 0; i < size; i++ {
					if got := rankEntry(e, r, i); math.Float64bits(got) != math.Float64bits(want[r*size+i]) {
						t.Fatalf("%s %s rank %d: entry %d = %v, want %v", tc.name, src, r, i, got, want[r*size+i])
					}
				}
			}
		}
		if err := f.Retire(built); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWiderTermGroupShards: costs whose term group is larger than the
// budgeted diagonal search finds — a constant at n = 10 (term h = 9)
// and Z₀Z₁ alone (term h = 8) — take the term group at K = 1, fall back
// to the complement where the ranks cannot hold it, and match Serial's
// energy and gradient to 1e-12 at K ∈ {1, 2, 4} in float64, and within
// the float32 band in float32.
func TestWiderTermGroupShards(t *testing.T) {
	const n = 10
	rng := rand.New(rand.NewSource(97))
	for _, c := range []struct {
		name  string
		terms poly.Terms
		h1    int
	}{
		{"constant", poly.New(poly.NewTerm(0.5)), 9},
		{"z0z1", poly.New(poly.NewTerm(1, 0, 1)), 8},
	} {
		serial, err := core.New(n, c.terms, core.Options{Backend: core.BackendSerial})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4} {
			gamma, beta := randomAngles(rng, p)
			refE, refGG, refGB, err := serial.SimulateQAOAGrad(gamma, beta)
			if err != nil {
				t.Fatal(err)
			}
			scale := math.Max(maxAbs(refGG, refGB), 1)
			for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
				tol := 1e-12
				if prec == PrecisionFloat32 {
					tol = 2e-3
				}
				for _, ranks := range []int{1, 2, 4} {
					where := fmt.Sprintf("%s %v K=%d p=%d", c.name, prec, ranks, p)
					eng, err := NewGradEngine(n, c.terms, Options{Ranks: ranks, Precision: prec})
					if err != nil {
						t.Fatal(err)
					}
					if ranks == 1 && eng.pivots() != c.h1 {
						t.Errorf("%s: stores the state over %d pivots, want %d", where, eng.pivots(), c.h1)
					}
					gg, gb := make([]float64, p), make([]float64, p)
					e, err := eng.EnergyGradAngles(context.Background(), gamma, beta, gg, gb)
					if err != nil {
						t.Fatal(err)
					}
					if d := math.Abs(e - refE); d > tol*math.Max(math.Abs(refE), 1) {
						t.Errorf("%s: energy %v, serial %v", where, e, refE)
					}
					for l := 0; l < p; l++ {
						if d := math.Max(math.Abs(gg[l]-refGG[l]), math.Abs(gb[l]-refGB[l])); d > tol*scale {
							t.Errorf("%s: layer %d gradient differs by %g", where, l, d)
						}
					}
				}
			}
		}
	}
}

// TestRegistryShardsReadEntryInPlace: a registry-built engine for LABS
// n = 16 at K = 2 (tenants' sharded LABS problem) holds no cost entries of
// its own. The shards store the state over the term group the entry is
// stored over, so the engine's form is the leased entry itself and
// every rank's window is a sub-slice of the entry's codes.
func TestRegistryShardsReadEntryInPlace(t *testing.T) {
	const n, ranks = 16, 2
	ctx := context.Background()
	terms := problems.LABSTerms(n)
	reg := registry.New(registry.Options{})
	key, err := reg.Register(registry.Spec{N: n, Terms: terms})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactoryFromSource(n, terms, Options{Ranks: ranks}, registrySource(reg, key))
	if err != nil {
		t.Fatal(err)
	}
	built, err := f.NewGradEngine(ctx)
	if err != nil {
		t.Fatal(err)
	}
	h, err := reg.Acquire(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	entry := h.Cost()
	if built.eng.Form() != entry {
		t.Fatal("the engine holds a cost form of its own, not the leased entry")
	}
	if entry.Codes == nil || entry.Diag != nil {
		t.Fatalf("LABS n=%d entry holds codes %v and float64 entries %v, want codes alone", n, entry.Codes != nil, entry.Diag != nil)
	}
	size := built.eng.Len()
	for r := 0; r < ranks; r++ {
		if codes := built.eng.Phase(r, 0, nil).Codes; &codes[0] != &entry.Codes.Codes[r*size] || len(codes) != size {
			t.Errorf("rank %d does not read entries [%d, %d) of the leased codes in place", r, r*size, (r+1)*size)
		}
	}
	if err := f.Retire(built); err != nil {
		t.Fatal(err)
	}
}
