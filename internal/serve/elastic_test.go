package serve

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

// fakeFactory builds gated fakeEvals and counts builds/retires, so the
// scale tests can observe the pool's evaluator lifecycle directly.
type fakeFactory struct {
	n          int
	stateBytes int64
	gate       chan struct{}

	mu      sync.Mutex
	built   int
	retired int
}

func (f *fakeFactory) Caps() evaluator.Caps {
	return evaluator.Caps{NumQubits: f.n, Grad: true, Ranks: 1, StateBytes: f.stateBytes}
}

func (f *fakeFactory) New(ctx context.Context) (evaluator.Evaluator, error) {
	f.mu.Lock()
	f.built++
	f.mu.Unlock()
	return &fakeEval{n: f.n, grad: true, gate: f.gate}, nil
}

func (f *fakeFactory) Retire(ev evaluator.Evaluator) error {
	f.mu.Lock()
	f.retired++
	f.mu.Unlock()
	return nil
}

func (f *fakeFactory) counts() (built, retired int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.built, f.retired
}

// waitUntil polls until cond holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestElasticGrowsAndShrinks is the scale contract: a burst of
// 64-point batches grows the pool from its floor toward MaxWorkers
// (observed queue depth), the drained pool decays back to the floor,
// and every evaluator built above the floor is retired to its factory.
func TestElasticGrowsAndShrinks(t *testing.T) {
	const points, maxW = 64, 8
	f := &fakeFactory{n: 4, stateBytes: 1, gate: make(chan struct{})}
	svc, err := NewElastic([]evaluator.Factory{f}, ElasticOptions{
		MinWorkers: 1, MaxWorkers: maxW, IdleDecay: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.LiveWorkers(); got != 1 {
		t.Fatalf("LiveWorkers at start = %d, want the floor 1", got)
	}

	xs := make([][]float64, points)
	for i := range xs {
		xs[i] = flat(float64(i), 0)
	}
	done := make(chan error, 1)
	go func() {
		_, err := svc.EnergyBatch(context.Background(), xs, nil)
		done <- err
	}()

	// Every worker blocks on the gate, so backlog keeps the growth
	// trigger firing until the ceiling.
	waitUntil(t, "pool to grow to MaxWorkers", func() bool { return svc.LiveWorkers() == maxW })

	for i := 0; i < points; i++ {
		f.gate <- struct{}{}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if peak := svc.PeakWorkers(); peak != maxW {
		t.Errorf("PeakWorkers = %d, want %d", peak, maxW)
	}

	waitUntil(t, "pool to shrink to the floor", func() bool { return svc.LiveWorkers() == 1 })
	waitUntil(t, "above-floor evaluators to be retired", func() bool {
		built, retired := f.counts()
		return built-retired == 1 // only the floor worker's build stays
	})

	// The shrunk pool still serves.
	go func() { f.gate <- struct{}{} }()
	if got, err := svc.Energy(context.Background(), flat(3, 0)); err != nil || got != -3 {
		t.Fatalf("Energy after shrink = %v, %v; want -3", got, err)
	}

	svc.Close()
	built, retired := f.counts()
	if built != retired {
		t.Errorf("Close left %d of %d builds unretired", built-retired, built)
	}
}

// TestElasticMemoryBudget: a budget with room for one build limits the
// pool to that build's one worker no matter the backlog, and the first
// build is always admitted.
func TestElasticMemoryBudget(t *testing.T) {
	const points = 16
	f := &fakeFactory{n: 4, stateBytes: 100, gate: make(chan struct{})}
	svc, err := NewElastic([]evaluator.Factory{f}, ElasticOptions{
		MinWorkers: 1, MaxWorkers: 8, MemoryBudget: 150, IdleDecay: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	xs := make([][]float64, points)
	for i := range xs {
		xs[i] = flat(float64(i), 0)
	}
	done := make(chan error, 1)
	go func() {
		_, err := svc.EnergyBatch(context.Background(), xs, nil)
		done <- err
	}()
	for i := 0; i < points; i++ {
		f.gate <- struct{}{}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if built, _ := f.counts(); built != 1 {
		t.Errorf("budget for one build produced %d builds", built)
	}
}

// TestElasticFixedParity: the elastic pool returns bit-identical
// energies and gradients to a fixed pool over the same engine
// construction — scheduling must not perturb numerics.
func TestElasticFixedParity(t *testing.T) {
	const n, p, points = 10, 3, 32
	terms := problems.LABSTerms(n)
	sim, err := core.New(n, terms, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := New(workspaces(sim, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()

	cf := core.NewFactory(n, terms, core.Options{}, leaseTerms(n, terms))
	elastic, err := NewElastic([]evaluator.Factory{cf}, ElasticOptions{
		MinWorkers: 1, MaxWorkers: 4, IdleDecay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer elastic.Close()

	rng := rand.New(rand.NewSource(11))
	xs := make([][]float64, points)
	for i := range xs {
		x := make([]float64, 2*p)
		for j := range x {
			x[j] = rng.Float64()
		}
		xs[i] = x
	}
	ctx := context.Background()
	want, err := fixed.EnergyBatch(ctx, xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := elastic.EnergyBatch(ctx, xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("point %d: elastic %v != fixed %v (must be bit-identical)", i, got[i], want[i])
		}
	}
	gw := make([]float64, 2*p)
	gg := make([]float64, 2*p)
	ew, err := fixed.EnergyGrad(ctx, xs[0], gw)
	if err != nil {
		t.Fatal(err)
	}
	eg, err := elastic.EnergyGrad(ctx, xs[0], gg)
	if err != nil {
		t.Fatal(err)
	}
	if ew != eg {
		t.Errorf("gradient energies differ: %v != %v", eg, ew)
	}
	for i := range gw {
		if gw[i] != gg[i] {
			t.Errorf("grad[%d]: %v != %v", i, gg[i], gw[i])
		}
	}
}

// TestElasticSteadyStateAllocations: after a burst grows and decays
// the pool, the floor worker's warm path must not allocate state-scale
// memory per request — elasticity cannot cost the zero-allocation
// steady state the fixed pool established.
func TestElasticSteadyStateAllocations(t *testing.T) {
	const n, p, count = 12, 4, 64
	stateBytes := 16 << n
	terms := problems.LABSTerms(n)
	cf := core.NewFactory(n, terms, core.Options{Backend: core.BackendSerial}, leaseTerms(n, terms))
	// ScaleThreshold 2 keeps sequential (backlog ≤ 1) load from
	// re-growing the decayed pool, so the measurement runs entirely on
	// the floor worker's warm buffers; the burst still grows it.
	svc, err := NewElastic([]evaluator.Factory{cf}, ElasticOptions{
		MinWorkers: 1, MaxWorkers: 4, IdleDecay: 10 * time.Millisecond, ScaleThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	rng := rand.New(rand.NewSource(29))
	xs := make([][]float64, count)
	for i := range xs {
		x := make([]float64, 2*p)
		for j := range x {
			x[j] = rng.Float64()
		}
		xs[i] = x
	}
	out := make([]float64, count)
	ctx := context.Background()
	if _, err := svc.EnergyBatch(ctx, xs, out); err != nil { // burst: grows the pool
		t.Fatal(err)
	}
	waitUntil(t, "pool to decay to the floor", func() bool { return svc.LiveWorkers() == 1 })
	warm := func() {
		for _, x := range xs {
			if _, err := svc.Energy(ctx, x); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm() // floor worker re-warms its buffers

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	warm()
	runtime.ReadMemStats(&after)
	if got := svc.LiveWorkers(); got != 1 {
		t.Fatalf("steady-state load re-grew the pool to %d workers", got)
	}
	perPoint := (after.TotalAlloc - before.TotalAlloc) / count
	if perPoint > uint64(stateBytes)/8 {
		t.Errorf("%d bytes allocated per request; want ≪ one %d-byte state buffer", perPoint, stateBytes)
	}
}

// formSource is a never-expiring lease of a stored cost form, the
// tests' stand-in for a registry handle.
type formSource struct{ form *costvec.Stored }

func (s formSource) Cost() *costvec.Stored { return s.form }

func (formSource) Release() {}

// leaseTerms returns an acquire function that leases the stored form of
// the terms' cost over their term group, as a registry entry stores it
// under the x mixer.
func leaseTerms(n int, terms poly.Terms) core.AcquireFunc {
	return func(context.Context) (core.DiagSource, error) {
		c := poly.Compile(terms)
		pivots, flip := costvec.TermPivots(n, c.Masks)
		form, err := costvec.NewStored(statevec.NewPool(1), c, n, pivots, flip)
		if err != nil {
			return nil, err
		}
		return formSource{form}, nil
	}
}
