package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qokit/internal/core"
	"qokit/internal/evaluator"
	"qokit/internal/problems"
)

// fakeEval is a scriptable evaluator for scheduler-behaviour tests:
// it logs completion order, optionally gates evaluations, and tracks
// the number of evaluations in flight.
type fakeEval struct {
	n    int
	grad bool
	gate chan struct{} // non-nil: each evaluation consumes one token

	mu       sync.Mutex
	order    []float64 // x[0] of each served request, in service order
	inFlight atomic.Int64
	maxSeen  atomic.Int64
}

func (f *fakeEval) serve(x []float64) float64 {
	cur := f.inFlight.Add(1)
	for {
		max := f.maxSeen.Load()
		if cur <= max || f.maxSeen.CompareAndSwap(max, cur) {
			break
		}
	}
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	f.order = append(f.order, x[0])
	f.mu.Unlock()
	f.inFlight.Add(-1)
	return -x[0]
}

func (f *fakeEval) Energy(ctx context.Context, x []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return f.serve(x), nil
}

func (f *fakeEval) EnergyGrad(ctx context.Context, x, g []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	e := f.serve(x)
	for i := range g {
		g[i] = float64(i)
	}
	return e, nil
}

func (f *fakeEval) Caps() evaluator.Caps {
	return evaluator.Caps{NumQubits: f.n, Grad: f.grad, Ranks: 1, StateBytes: 1}
}

func flat(vals ...float64) []float64 { return vals }

// workspaces builds k workspaces over sim, one per service worker.
func workspaces(sim *core.Simulator, k int) []evaluator.Evaluator {
	evs := make([]evaluator.Evaluator, k)
	for i := range evs {
		evs[i] = sim.NewWorkspace()
	}
	return evs
}

// TestServiceMatchesEngine is the equivalence contract: point, batch,
// and gradient requests through the service reproduce the direct
// engine paths bit for bit (same engine, same buffers, same kernels).
func TestServiceMatchesEngine(t *testing.T) {
	const n, p, count = 8, 3, 24
	rng := rand.New(rand.NewSource(21))
	sim, err := core.New(n, problems.LABSTerms(n), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewWorkspace()
	svc, err := New(workspaces(sim, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	xs := make([][]float64, count)
	for i := range xs {
		x := make([]float64, 2*p)
		for j := range x {
			x[j] = rng.Float64() - 0.5
		}
		xs[i] = x
	}
	ctx := context.Background()

	// Single point.
	e, err := svc.Energy(ctx, xs[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Energy(ctx, xs[0])
	if err != nil {
		t.Fatal(err)
	}
	if e != want {
		t.Errorf("service energy %v != engine %v", e, want)
	}

	// Batch.
	got, err := svc.EnergyBatch(ctx, xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		w, err := eng.Energy(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != w {
			t.Errorf("batch point %d: %v != %v", i, got[i], w)
		}
	}

	// Gradients, single and batched.
	g1 := make([]float64, 2*p)
	ge, err := svc.EnergyGrad(ctx, xs[1], g1)
	if err != nil {
		t.Fatal(err)
	}
	gw := make([]float64, 2*p)
	gwe, err := eng.EnergyGrad(ctx, xs[1], gw)
	if err != nil {
		t.Fatal(err)
	}
	if ge != gwe {
		t.Errorf("grad energy %v != %v", ge, gwe)
	}
	for i := range g1 {
		if g1[i] != gw[i] {
			t.Errorf("grad[%d] %v != %v", i, g1[i], gw[i])
		}
	}
	grads := make([][]float64, count)
	for i := range grads {
		grads[i] = make([]float64, 2*p)
	}
	energies, err := svc.EnergyGradBatch(ctx, xs, nil, grads)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		we, err := eng.EnergyGrad(ctx, xs[i], gw)
		if err != nil {
			t.Fatal(err)
		}
		if energies[i] != we {
			t.Errorf("grad batch point %d energy mismatch", i)
		}
		for j := range gw {
			if grads[i][j] != gw[j] {
				t.Errorf("grad batch point %d component %d mismatch", i, j)
			}
		}
	}
}

// TestServiceFIFO pins request ordering: with one worker, points
// complete in exactly the order they were enqueued — within a batch,
// and across a batch and the requests submitted behind it.
func TestServiceFIFO(t *testing.T) {
	fe := &fakeEval{n: 4, grad: true, gate: make(chan struct{}, 64)}
	svc, err := New([]evaluator.Evaluator{fe})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Hold the single worker on batch A's first point while batch B
	// and a point query line up behind it.
	batchA := [][]float64{flat(1, 0), flat(2, 0), flat(3, 0)}
	batchB := [][]float64{flat(4, 0), flat(5, 0)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := svc.EnergyBatch(context.Background(), batchA, nil); err != nil {
			t.Error(err)
		}
	}()
	waitInFlight(t, &fe.inFlight, 1)

	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := svc.EnergyBatch(context.Background(), batchB, nil); err != nil {
			t.Error(err)
		}
	}()
	// Give batch B's enqueue a moment before the point query lines up.
	time.Sleep(10 * time.Millisecond)
	go func() {
		defer wg.Done()
		if _, err := svc.Energy(context.Background(), flat(6, 0)); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < 6; i++ {
		fe.gate <- struct{}{}
	}
	wg.Wait()

	want := []float64{1, 2, 3, 4, 5, 6}
	if len(fe.order) != len(want) {
		t.Fatalf("served %d requests, want %d", len(fe.order), len(want))
	}
	for i, v := range want {
		if fe.order[i] != v {
			t.Fatalf("service order %v, want %v (FIFO)", fe.order, want)
		}
	}
}

func waitInFlight(t *testing.T, ctr *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ctr.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight count stuck below %d", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServiceConcurrentMixed hammers the service from many client
// goroutines issuing interleaved point, batch, and gradient requests
// against a real engine — the -race scenario of the serving layer.
func TestServiceConcurrentMixed(t *testing.T) {
	const n, p, clients = 8, 2, 8
	rng := rand.New(rand.NewSource(23))
	sim, err := core.New(n, problems.LABSTerms(n), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewWorkspace()
	svc, err := New(workspaces(sim, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	xs := make([][]float64, 16)
	wantE := make([]float64, len(xs))
	wantG := make([][]float64, len(xs))
	for i := range xs {
		x := make([]float64, 2*p)
		for j := range x {
			x[j] = rng.Float64() - 0.5
		}
		xs[i] = x
		wantG[i] = make([]float64, 2*p)
		we, err := eng.EnergyGrad(context.Background(), x, wantG[i])
		if err != nil {
			t.Fatal(err)
		}
		wantE[i] = we
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			switch c % 3 {
			case 0: // point queries
				for i, x := range xs {
					e, err := svc.Energy(ctx, x)
					if err != nil {
						t.Error(err)
						return
					}
					if e != wantE[i] {
						t.Errorf("client %d: point %d energy %v != %v", c, i, e, wantE[i])
						return
					}
				}
			case 1: // batches
				got, err := svc.EnergyBatch(ctx, xs, nil)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if got[i] != wantE[i] {
						t.Errorf("client %d: batch point %d mismatch", c, i)
						return
					}
				}
			default: // gradients
				g := make([]float64, 2*p)
				for i, x := range xs {
					e, err := svc.EnergyGrad(ctx, x, g)
					if err != nil {
						t.Error(err)
						return
					}
					if e != wantE[i] {
						t.Errorf("client %d: grad point %d energy mismatch", c, i)
						return
					}
					for j := range g {
						if g[j] != wantG[i][j] {
							t.Errorf("client %d: grad point %d component %d mismatch", c, i, j)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestServiceCancellation covers the three cancellation surfaces:
// a batch cancelled mid-flight returns promptly with ctx.Err() while
// later requests still complete; a queued single request is withdrawn
// without being evaluated; and the pool keeps serving afterwards.
func TestServiceCancellation(t *testing.T) {
	fe := &fakeEval{n: 4, grad: true, gate: make(chan struct{}, 64)}
	svc, err := New([]evaluator.Evaluator{fe})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Mid-batch cancellation: the worker is held on point 1 of a
	// 6-point batch; cancelling fails the remaining points at their
	// next pop, and the batch call returns context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	big := make([][]float64, 6)
	for i := range big {
		big[i] = flat(float64(i), 0)
	}
	got := make(chan error, 1)
	go func() {
		_, err := svc.EnergyBatch(ctx, big, nil)
		got <- err
	}()
	waitInFlight(t, &fe.inFlight, 1)
	cancel()
	fe.gate <- struct{}{} // release the in-flight point
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled batch returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled batch did not return")
	}

	// Queued-request withdrawal: hold the worker, queue a point, cancel
	// it — it must return immediately without consuming a gate token.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := svc.Energy(context.Background(), flat(100, 0)); err != nil {
			t.Error(err)
		}
	}()
	waitInFlight(t, &fe.inFlight, 1)
	ctx2, cancel2 := context.WithCancel(context.Background())
	withdrawn := make(chan error, 1)
	go func() {
		_, err := svc.Energy(ctx2, flat(101, 0))
		withdrawn <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it enqueue behind the held point
	cancel2()
	select {
	case err := <-withdrawn:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("withdrawn request returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request did not withdraw on cancellation")
	}
	fe.gate <- struct{}{}
	wg.Wait()

	// The service still works, and the withdrawn point was never
	// evaluated.
	fe.gate <- struct{}{}
	if _, err := svc.Energy(context.Background(), flat(102, 0)); err != nil {
		t.Fatal(err)
	}
	fe.mu.Lock()
	for _, v := range fe.order {
		if v == 101 {
			t.Error("withdrawn request was evaluated")
		}
	}
	fe.mu.Unlock()
}

// TestServiceClose: queued requests fail with ErrClosed, later
// submissions are rejected, Close is idempotent.
func TestServiceClose(t *testing.T) {
	fe := &fakeEval{n: 4, grad: true, gate: make(chan struct{}, 16)}
	svc, err := New([]evaluator.Evaluator{fe})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	stranded := make(chan error, 1)
	go func() {
		defer wg.Done()
		// The worker blocks on the gate inside this evaluation, so the
		// second request is stranded in the queue when Close drains it.
		if _, err := svc.Energy(context.Background(), flat(1, 0)); err != nil {
			t.Error(err)
		}
	}()
	waitInFlight(t, &fe.inFlight, 1)
	go func() {
		_, err := svc.Energy(context.Background(), flat(2, 0))
		stranded <- err
	}()
	time.Sleep(10 * time.Millisecond)
	go svc.Close()
	if err := <-stranded; !errors.Is(err, ErrClosed) {
		t.Errorf("stranded request returned %v, want ErrClosed", err)
	}
	fe.gate <- struct{}{} // release the in-flight evaluation
	wg.Wait()
	svc.Close() // idempotent
	if _, err := svc.Energy(context.Background(), flat(3, 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close submission returned %v", err)
	}
}

// TestServiceValidation rejects malformed requests and mismatched
// pools up front.
func TestServiceValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := New([]evaluator.Evaluator{&fakeEval{n: 4}, &fakeEval{n: 6}}); err == nil {
		t.Error("mixed qubit counts accepted")
	}
	if _, err := New([]evaluator.Evaluator{&fakeEval{n: 4}, nil}); err == nil ||
		!strings.Contains(err.Error(), "evaluator 1 is nil") {
		t.Errorf("nil evaluator: err = %v", err)
	}
	if _, err := NewElastic([]evaluator.Factory{nil}, ElasticOptions{}); err == nil ||
		!strings.Contains(err.Error(), "factory 0 is nil") {
		t.Errorf("nil factory: err = %v", err)
	}
	noGrad := &fakeEval{n: 4, grad: false}
	svc, err := New([]evaluator.Evaluator{noGrad})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Energy(context.Background(), flat(1, 2, 3)); err == nil {
		t.Error("odd-length vector accepted")
	}
	g := make([]float64, 2)
	if _, err := svc.EnergyGrad(context.Background(), flat(1, 2), g); err == nil {
		t.Error("gradient request accepted by gradient-free pool")
	}
	if _, err := svc.EnergyGradBatch(context.Background(), [][]float64{flat(1, 2)}, nil, nil); err == nil {
		t.Error("mismatched gradient slots accepted")
	}
	if caps := svc.Caps(); caps.Grad {
		t.Error("aggregate caps claim gradients over a gradient-free pool")
	}
}

// TestServiceWorkerSizing pins the worker-pool arithmetic: one worker
// per listed evaluator, with an evaluator listed twice counted twice
// in the workers and in the pinned state memory.
func TestServiceWorkerSizing(t *testing.T) {
	fe := &fakeEval{n: 4, grad: true}
	svc, err := New([]evaluator.Evaluator{fe})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Workers() != 1 || svc.LiveWorkers() != 1 || svc.PeakWorkers() != 1 {
		t.Errorf("one evaluator: workers %d (live %d, peak %d), want 1",
			svc.Workers(), svc.LiveWorkers(), svc.PeakWorkers())
	}
	svc.Close()
	svc, err = New([]evaluator.Evaluator{fe, fe, &fakeEval{n: 4, grad: true}})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Workers() != 3 || svc.LiveWorkers() != 3 || svc.PeakWorkers() != 3 {
		t.Errorf("three listed evaluators: workers %d (live %d, peak %d), want 3",
			svc.Workers(), svc.LiveWorkers(), svc.PeakWorkers())
	}
	if caps := svc.Caps(); caps.StateBytes != 3 {
		t.Errorf("aggregate caps %+v, want StateBytes 3", caps)
	}
	svc.Close()
}

// TestServiceConcurrencyObserved: with a gated evaluator listed three
// times, the pool demonstrably holds three evaluations in flight at
// once — the scheduling property the whole layer exists for.
func TestServiceConcurrencyObserved(t *testing.T) {
	fe := &fakeEval{n: 4, grad: true, gate: make(chan struct{}, 64)}
	svc, err := New([]evaluator.Evaluator{fe, fe, fe})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	xs := make([][]float64, 6)
	for i := range xs {
		xs[i] = flat(float64(i), 0)
	}
	done := make(chan error, 1)
	go func() {
		_, err := svc.EnergyBatch(context.Background(), xs, nil)
		done <- err
	}()
	waitInFlight(t, &fe.inFlight, 3)
	for i := 0; i < len(xs); i++ {
		fe.gate <- struct{}{}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if max := fe.maxSeen.Load(); max != 3 {
		t.Errorf("max in-flight %d, want 3 (one per worker)", max)
	}
}

// TestServiceNoPerRequestStateAllocations is the zero-alloc-warm pin
// for the workspace path: a warmed service adds only constant queue
// bookkeeping per request — no state-vector-sized allocations. The
// bound is 1/8 of one state buffer per point, the same bar core's batch
// pin uses; a fresh state per point would blow it by an order of
// magnitude.
func TestServiceNoPerRequestStateAllocations(t *testing.T) {
	const n, p, count = 12, 4, 64
	stateBytes := 16 << n
	rng := rand.New(rand.NewSource(29))
	sim, err := core.New(n, problems.LABSTerms(n), core.Options{Backend: core.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(workspaces(sim, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

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
	g := make([]float64, 2*p)
	warm := func() {
		if _, err := svc.EnergyBatch(ctx, xs, out); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Energy(ctx, xs[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.EnergyGrad(ctx, xs[1], g); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	warm()
	runtime.ReadMemStats(&after)
	perPoint := (after.TotalAlloc - before.TotalAlloc) / (count + 2)
	if perPoint > uint64(stateBytes)/8 {
		t.Errorf("%d bytes allocated per request; want ≪ one %d-byte state buffer", perPoint, stateBytes)
	}
}

// TestGradObjective: the service's value-and-gradient objective returns
// the adjoint energy and gradient, and latches the first error so an
// optimizer loop unwinds without evaluating again.
func TestGradObjective(t *testing.T) {
	const n, p = 8, 3
	sim, err := core.New(n, problems.LABSTerms(n), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(workspaces(sim, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var simErr error
	obj := svc.GradObjective(context.Background(), &simErr)
	x := flat(0.3, -0.4, 0.7, 0.2, 0.5, -0.1)
	g := make([]float64, 2*p)
	v := obj(x, g)
	want, wG, wB, err := sim.SimulateQAOAGrad(x[:p], x[p:])
	if err != nil || simErr != nil {
		t.Fatal(err, simErr)
	}
	if v != want {
		t.Errorf("objective %v != %v", v, want)
	}
	for l := 0; l < p; l++ {
		if g[l] != wG[l] || g[p+l] != wB[l] {
			t.Errorf("layer %d: grad (%v, %v) != (%v, %v)", l, g[l], g[p+l], wG[l], wB[l])
		}
	}
	if got := obj(x[:5], g[:5]); got != 0 || simErr == nil {
		t.Errorf("odd-length x: got %v, err %v; want 0 and a latched error", got, simErr)
	}
	if got := obj(x, g); got != 0 {
		t.Errorf("after a latched error: got %v, want 0 (short-circuit)", got)
	}
}

// TestServiceComposes: a Service is itself an evaluator, so it nests
// inside another Service — listed twice, for two outer workers — and
// behind any engine-shaped API.
func TestServiceComposes(t *testing.T) {
	sim, err := core.New(6, problems.LABSTerms(6), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := New(workspaces(sim, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	outer, err := New([]evaluator.Evaluator{inner, inner})
	if err != nil {
		t.Fatal(err)
	}
	defer outer.Close()
	x := flat(0.3, 0.5)
	e, err := outer.Energy(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Energy(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-want) > 1e-15 {
		t.Errorf("nested service energy %v != %v", e, want)
	}
}

// failingEval errors on a marked point — for the abandon-on-error
// contract below.
type failingEval struct {
	fakeEval
	failAt float64
}

func (f *failingEval) Energy(ctx context.Context, x []float64) (float64, error) {
	if x[0] == f.failAt {
		return 0, errors.New("injected evaluator failure")
	}
	return f.fakeEval.Energy(ctx, x)
}

// TestBatchAbandonsAfterError: once one point of a batch fails, the
// remaining points settle with the latched error instead of paying
// for their evaluations.
func TestBatchAbandonsAfterError(t *testing.T) {
	fe := &failingEval{fakeEval: fakeEval{n: 4, grad: true}, failAt: 2}
	svc, err := New([]evaluator.Evaluator{fe})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	xs := [][]float64{flat(1, 0), flat(2, 0), flat(3, 0), flat(4, 0), flat(5, 0)}
	_, err = svc.EnergyBatch(context.Background(), xs, nil)
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("batch error = %v", err)
	}
	// The single worker processed the points in order: 1 succeeded,
	// 2 failed, and 3–5 were abandoned without evaluation.
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if len(fe.order) != 1 || fe.order[0] != 1 {
		t.Errorf("evaluations after failure: %v, want just [1]", fe.order)
	}
}
