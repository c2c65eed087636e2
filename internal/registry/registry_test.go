package registry

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/serve"
)

func mustRegister(t *testing.T, r *Registry, spec Spec) Key {
	t.Helper()
	key, err := r.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestKeyCanonical: term order and duplicate masks must not split the
// cache; genuinely different problems must not collide.
func TestKeyCanonical(t *testing.T) {
	a := poly.Terms{poly.NewTerm(0.5, 0, 1), poly.NewTerm(-1.5), poly.NewTerm(0.25, 1, 2), poly.NewTerm(0.25, 1, 2)}
	b := poly.Terms{poly.NewTerm(0.5, 1, 2), poly.NewTerm(0.5, 0, 1), poly.NewTerm(-1.5)}
	ka, err := KeyFor(Spec{N: 4, Terms: a})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := KeyFor(Spec{N: 4, Terms: b})
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("reordered+merged terms hashed differently:\n%s\n%s", ka, kb)
	}
	if kn, _ := KeyFor(Spec{N: 5, Terms: a}); kn == ka {
		t.Error("different n produced the same key")
	}
	if km, _ := KeyFor(Spec{N: 4, Terms: a, Mixer: core.MixerXYRing}); km == ka {
		t.Error("different mixer family produced the same key")
	}
	if _, err := KeyFor(Spec{N: 1, Terms: a}); err == nil {
		t.Error("terms referencing qubits ≥ n accepted")
	}
}

// TestCacheHitSkipsPrecompute is the tentpole property: a second
// acquisition of the same problem performs zero diagonal-precompute
// work, counted directly.
func TestCacheHitSkipsPrecompute(t *testing.T) {
	const n = 10
	r := New(Options{})
	key := mustRegister(t, r, Spec{N: n, Terms: problems.LABSTerms(n)})

	ctx := context.Background()
	h1, err := r.Acquire(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	want := costvec.Precompute(poly.Compile(problems.LABSTerms(n).Canonical()), n)
	for i, v := range h1.Diag() {
		if v != want[i] {
			t.Fatalf("diag[%d] = %v, want %v", i, v, want[i])
		}
	}
	h1.Release()

	for i := 0; i < 5; i++ {
		h, err := r.Acquire(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	st := r.Stats()
	if st.Precomputes != 1 {
		t.Errorf("Precomputes = %d after repeated acquisitions, want 1", st.Precomputes)
	}
	if st.Hits != 5 || st.Misses != 1 {
		t.Errorf("Hits/Misses = %d/%d, want 5/1", st.Hits, st.Misses)
	}
}

// TestConcurrentColdAcquire: many goroutines racing on a cold entry
// share one precompute.
func TestConcurrentColdAcquire(t *testing.T) {
	const n, goroutines = 10, 16
	r := New(Options{})
	key := mustRegister(t, r, Spec{N: n, Terms: problems.LABSTerms(n)})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := r.Acquire(context.Background(), key)
			if err != nil {
				t.Error(err)
				return
			}
			defer h.Release()
			if len(h.Diag()) != 1<<n {
				t.Errorf("diag length %d", len(h.Diag()))
			}
		}()
	}
	wg.Wait()
	if st := r.Stats(); st.Precomputes != 1 {
		t.Errorf("Precomputes = %d under concurrent cold acquire, want 1", st.Precomputes)
	}
}

// entryBytes returns the bytes an entry for spec reports once built,
// from a registry of its own.
func entryBytes(t *testing.T, spec Spec) int64 {
	t.Helper()
	r := New(Options{})
	h, err := r.Acquire(context.Background(), mustRegister(t, r, spec))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	return r.Stats().ResidentBytes
}

// oneEntryBudget returns a budget that holds the larger of two entries
// but not both, so each acquire evicts the other.
func oneEntryBudget(t *testing.T, a, b Spec) int64 {
	t.Helper()
	return max(entryBytes(t, a), entryBytes(t, b))
}

// TestEntryBytesFromStoredForm pins what an entry holds and reports:
// its stored form (costvec.Stored), over the term group under the x
// mixer and the full index space under the xy mixers, as 2 B codes on
// an exact grid (LABS, MaxCut) and 8 B float64 entries otherwise (SK).
// Every handle expands it back to the terms' full diagonal bit for bit.
func TestEntryBytesFromStoredForm(t *testing.T) {
	const n = 16
	g, err := graphs.RandomRegular(n, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		spec Spec
		want int64
	}{
		{"labs", Spec{N: n, Terms: problems.LABSTerms(n)}, 2 << (n - 2)},
		{"labs xy-ring", Spec{N: n, Terms: problems.LABSTerms(n), Mixer: core.MixerXYRing}, 2 << n},
		{"maxcut", Spec{N: n, Terms: problems.MaxCutTerms(g)}, 2 << (n - 1)},
		{"sk", Spec{N: n, Terms: problems.SKTerms(n, 3)}, 8 << (n - 1)},
	} {
		r := New(Options{})
		h, err := r.Acquire(context.Background(), mustRegister(t, r, c.spec))
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Stats().ResidentBytes; got != c.want || h.Cost().Bytes() != c.want {
			t.Errorf("%s: ResidentBytes %d, form %d B, want %d", c.name, got, h.Cost().Bytes(), c.want)
		}
		want := costvec.Precompute(poly.Compile(c.spec.Terms), n)
		if got := h.Diag(); !slices.Equal(got, want) {
			t.Errorf("%s: Handle.Diag() differs from the precomputed diagonal", c.name)
		}
		h.Release()
	}
}

// TestReclaimPoisonsForm: reclaiming an evicted entry poisons its form
// before dropping it, so a read through a form retained past Release
// sees NaN: a coded entry's grid and a float64 entry's values alike.
func TestReclaimPoisonsForm(t *testing.T) {
	other := Spec{N: 8, Terms: poly.Terms{poly.NewTerm(1, 0, 1)}}
	for _, c := range []struct {
		name  string
		spec  Spec
		coded bool
	}{
		{"coded labs n=14", Spec{N: 14, Terms: problems.LABSTerms(14)}, true},
		{"float64 sk n=8", Spec{N: 8, Terms: problems.SKTerms(8, 3)}, false},
	} {
		r := New(Options{MaxBytes: oneEntryBudget(t, c.spec, other)})
		ka, kb := mustRegister(t, r, c.spec), mustRegister(t, r, other)
		ctx := context.Background()
		ha, err := r.Acquire(ctx, ka)
		if err != nil {
			t.Fatal(err)
		}
		form := ha.Cost()
		if (form.Codes != nil) != c.coded {
			t.Fatalf("%s: entry holds codes %v, want %v", c.name, form.Codes != nil, c.coded)
		}
		hb, err := r.Acquire(ctx, kb) // evicts the entry, pinned by ha
		if err != nil {
			t.Fatal(err)
		}
		hb.Release()
		if v := form.Value(3); math.IsNaN(v) {
			t.Fatalf("%s: a pinned entry was poisoned before its last release", c.name)
		}
		ha.Release() // the last release reclaims it
		for i := 0; i < form.Len(); i++ {
			if v := form.Value(i); !math.IsNaN(v) {
				t.Fatalf("%s: entry %d reads %v after reclaim, want NaN", c.name, i, v)
			}
		}
	}
}

// TestEvictionAndRecompute: a budget for one entry evicts LRU-first
// and recomputes on re-acquisition.
func TestEvictionAndRecompute(t *testing.T) {
	const n = 8
	a := Spec{N: n, Terms: problems.LABSTerms(n)}
	b := Spec{N: n, Terms: poly.Terms{poly.NewTerm(1, 0, 1)}}
	budget := oneEntryBudget(t, a, b)
	r := New(Options{MaxBytes: budget})
	ka, kb := mustRegister(t, r, a), mustRegister(t, r, b)

	ctx := context.Background()
	for _, key := range []Key{ka, kb, ka} {
		h, err := r.Acquire(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	st := r.Stats()
	if st.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2 (each acquire evicts the other)", st.Evictions)
	}
	if st.Precomputes != 3 {
		t.Errorf("Precomputes = %d, want 3 (third acquire recomputes)", st.Precomputes)
	}
	if want := entryBytes(t, a); st.ResidentBytes != want || st.PinnedBytes != 0 {
		t.Errorf("Resident/Pinned = %d/%d, want %d/0", st.ResidentBytes, st.PinnedBytes, want)
	}
}

// TestEvictionUnderConcurrentEvalBatch is the refcount regression
// test: diagonals evicted while an in-flight EvalBatch holds them must
// stay valid until released. Without refcounting, the eviction's NaN
// scrub would land mid-evaluation and the energies below would come
// back non-finite.
func TestEvictionUnderConcurrentEvalBatch(t *testing.T) {
	const n, p, points, rounds = 8, 2, 16, 8
	terms := problems.LABSTerms(n)
	a := Spec{N: n, Terms: terms}
	b := Spec{N: n, Terms: poly.Terms{poly.NewTerm(1, 0, 1), poly.NewTerm(0.5, 2, 3)}}
	// Room for one entry: every new acquire evicts the other problem.
	r := New(Options{MaxBytes: oneEntryBudget(t, a, b)})
	ka, kb := mustRegister(t, r, a), mustRegister(t, r, b)

	rng := rand.New(rand.NewSource(5))
	xs := make([][]float64, points)
	for i := range xs {
		x := make([]float64, 2*p)
		for j := range x {
			x[j] = rng.Float64()
		}
		xs[i] = x
	}

	// Reference energies from a registry-free simulator.
	refSim, err := core.New(n, terms, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refEng := refSim.NewWorkspace()
	want := make([]float64, points)
	for i, x := range xs {
		if want[i], err = refEng.Energy(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	evalErr := make(chan error, rounds*2)
	go func() {
		// Churn: repeatedly acquire problem B, forcing A's eviction
		// while the main goroutine is mid-EvalBatch on A's diagonal.
		defer wg.Done()
		for i := 0; i < rounds*4; i++ {
			h, err := r.Acquire(ctx, kb)
			if err != nil {
				evalErr <- err
				return
			}
			h.Release()
		}
	}()
	for round := 0; round < rounds; round++ {
		cf := core.NewFactory(n, terms, core.Options{}, func(ctx context.Context) (core.DiagSource, error) {
			h, err := r.Acquire(ctx, ka)
			if err != nil {
				return nil, err
			}
			return h, nil
		})
		svc, err := serve.NewElastic([]evaluator.Factory{cf}, serve.ElasticOptions{MinWorkers: 1, MaxWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.EnergyBatch(ctx, xs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.IsNaN(got[i]) {
				t.Fatalf("round %d point %d: NaN energy — evicted diagonal was reclaimed under an in-flight evaluation", round, i)
			}
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("round %d point %d: energy %v, want %v", round, i, got[i], want[i])
			}
		}
		svc.Close() // last retire releases the handle; the evicted entry may now be reclaimed
	}
	wg.Wait()
	close(evalErr)
	for err := range evalErr {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.PinnedBytes != 0 {
		t.Errorf("PinnedBytes = %d after all handles released, want 0", st.PinnedBytes)
	}
	if st.Evictions == 0 {
		t.Error("test exercised no evictions — budget/churn mismatch")
	}
}

// TestResurrection: acquiring an evicted-but-pinned entry revives it
// (counted as a hit) instead of recomputing a second copy.
func TestResurrection(t *testing.T) {
	const n = 8
	a := Spec{N: n, Terms: problems.LABSTerms(n)}
	b := Spec{N: n, Terms: poly.Terms{poly.NewTerm(1, 0, 1)}}
	r := New(Options{MaxBytes: oneEntryBudget(t, a, b)})
	ka, kb := mustRegister(t, r, a), mustRegister(t, r, b)

	ctx := context.Background()
	ha, err := r.Acquire(ctx, ka)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := r.Acquire(ctx, kb) // evicts A (pinned by ha)
	if err != nil {
		t.Fatal(err)
	}
	hb.Release()
	if st, want := r.Stats(), entryBytes(t, a); st.PinnedBytes != want {
		t.Fatalf("PinnedBytes = %d with A evicted under a live handle, want %d", st.PinnedBytes, want)
	}
	ha2, err := r.Acquire(ctx, ka) // resurrects A
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Precomputes != 2 {
		t.Errorf("Precomputes = %d, want 2 (resurrection must not recompute)", st.Precomputes)
	}
	if st.PinnedBytes != 0 {
		t.Errorf("PinnedBytes = %d after resurrection, want 0", st.PinnedBytes)
	}
	ha.Release()
	ha2.Release()
}
