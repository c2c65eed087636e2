package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qokit/internal/evaluator"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/serve"
	"qokit/internal/statevec"
)

// workspaceBackends are the four execution engines a workspace runs on.
var workspaceBackends = []struct {
	name string
	opts Options
}{
	{"serial", Options{Backend: BackendSerial}},
	{"parallel", Options{Backend: BackendParallel}},
	{"soa", Options{Backend: BackendSoA}},
	{"soa32", Options{Backend: BackendSoA, SinglePrecision: true}},
}

// randomXs draws count flat parameter vectors [γ…|β…] of depth p.
func randomXs(rng *rand.Rand, count, p int) [][]float64 {
	xs := make([][]float64, count)
	for i := range xs {
		x := make([]float64, 2*p)
		for l := 0; l < p; l++ {
			x[l] = rng.Float64() * math.Pi
			x[p+l] = rng.Float64() * math.Pi / 2
		}
		xs[i] = x
	}
	return xs
}

// pairTripleTerms draws a random cost polynomial with 2- and 3-body
// terms.
func pairTripleTerms(rng *rand.Rand, n int) poly.Terms {
	var terms []poly.Term
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.4 {
				terms = append(terms, poly.NewTerm(rng.NormFloat64(), i, j))
			}
		}
	}
	for k := 0; k < n; k++ {
		terms = append(terms, poly.NewTerm(rng.NormFloat64(), rng.Intn(n)))
	}
	terms = append(terms, poly.NewTerm(rng.NormFloat64(), 0, 1+rng.Intn(n-2), n-1))
	return poly.New(terms...)
}

// servedWorkspaces starts a service over k workspaces on sim, one per
// worker, closed when the test ends.
func servedWorkspaces(t *testing.T, sim *Simulator, k int) *serve.Service {
	t.Helper()
	evs := make([]evaluator.Evaluator, k)
	for i := range evs {
		evs[i] = sim.NewWorkspace()
	}
	svc, err := serve.New(evs, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// simulateRef evolves x point-at-a-time with a fresh state and returns
// its energy.
func simulateRef(t *testing.T, sim *Simulator, x []float64) float64 {
	t.Helper()
	p := len(x) / 2
	r, err := sim.SimulateQAOA(x[:p], x[p:])
	if err != nil {
		t.Fatal(err)
	}
	return r.Expectation()
}

// forEachWorkspaceConfig builds a LABS simulator on every backend and
// mixer and hands it, with a fresh workspace and a label, to check. On
// the x mixer each backend also runs from an explicit uniform
// InitialState, so the split layouts cover both sides of the
// group-state rule.
func forEachWorkspaceConfig(t *testing.T, n int, check func(label string, sim *Simulator, ws *Workspace)) {
	t.Helper()
	for _, mixer := range []Mixer{MixerX, MixerXYRing, MixerXYComplete} {
		starts := []statevec.Vec{nil}
		if mixer == MixerX {
			starts = append(starts, statevec.NewUniform(n))
		}
		for _, be := range workspaceBackends {
			for _, start := range starts {
				opts := be.opts
				opts.Mixer, opts.InitialState = mixer, start
				sim, err := New(n, problems.LABSTerms(n), opts)
				if err != nil {
					t.Fatal(err)
				}
				label := be.name + "/" + mixer.String()
				if start != nil {
					label += "/explicit start"
				}
				requireGroupSide(t, label, sim, start == nil && mixer == MixerX && opts.Backend == BackendSoA)
				check(label, sim, sim.NewWorkspace())
			}
		}
	}
}

// TestWorkspaceEnergyMatchesSimulate: on every backend and mixer,
// workspace Energy is bit-identical to SimulateQAOAInto, call after
// call on the one ψ buffer.
func TestWorkspaceEnergyMatchesSimulate(t *testing.T) {
	const n, p = 8, 3
	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()
	forEachWorkspaceConfig(t, n, func(label string, sim *Simulator, ws *Workspace) {
		r := sim.NewResult()
		for rep, x := range randomXs(rng, 3, p) {
			e, err := ws.Energy(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.SimulateQAOAInto(r, x[:p], x[p:]); err != nil {
				t.Fatal(err)
			}
			if want := r.Expectation(); e != want {
				t.Errorf("%s rep %d: Energy %v != SimulateQAOAInto %v", label, rep, e, want)
			}
		}
	})
}

// TestWorkspaceEnergyGradMatchesSimulate: on every backend and mixer,
// workspace EnergyGrad is bit-identical to SimulateQAOAGradInto, call
// after call, with an Energy evolved into the same ψ buffer before
// each gradient.
func TestWorkspaceEnergyGradMatchesSimulate(t *testing.T) {
	const n, p = 8, 3
	rng := rand.New(rand.NewSource(4))
	ctx := context.Background()
	forEachWorkspaceConfig(t, n, func(label string, sim *Simulator, ws *Workspace) {
		bufs := sim.NewGradBuffers()
		for rep, x := range randomXs(rng, 3, p) {
			if _, err := ws.Energy(ctx, x); err != nil {
				t.Fatal(err)
			}
			g := make([]float64, 2*p)
			eg, err := ws.EnergyGrad(ctx, x, g)
			if err != nil {
				t.Fatal(err)
			}
			wG, wB := make([]float64, p), make([]float64, p)
			want, err := sim.SimulateQAOAGradInto(bufs, x[:p], x[p:], wG, wB)
			if err != nil {
				t.Fatal(err)
			}
			if eg != want {
				t.Errorf("%s rep %d: EnergyGrad energy %v != %v", label, rep, eg, want)
			}
			for l := 0; l < p; l++ {
				if g[l] != wG[l] || g[p+l] != wB[l] {
					t.Errorf("%s rep %d layer %d: (%v, %v) != (%v, %v)", label, rep, l, g[l], g[p+l], wG[l], wB[l])
				}
			}
		}
	})
}

// checkWorkspaceZeroAllocs runs eval over count parameter vectors on a
// serial-backend workspace, once to warm it up and then under
// AllocsPerRun, which must read 0. The serial backend's kernels are
// straight loops with no goroutine machinery, so the bound is exact
// there.
func checkWorkspaceZeroAllocs(t *testing.T, count int, seed int64, eval func(ws *Workspace, x, g []float64) error) {
	t.Helper()
	const n, p = 8, 4
	sim, err := New(n, problems.LABSTerms(n), Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	ws := sim.NewWorkspace()
	xs := randomXs(rand.New(rand.NewSource(seed)), count, p)
	g := make([]float64, 2*p)
	run := func() {
		for _, x := range xs {
			if err := eval(ws, x, g); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm-up: allocates the buffers these calls need
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("warm %d-point run allocated %.1f times per run, want 0", count, allocs)
	}
}

func workspaceEnergy(ws *Workspace, x, _ []float64) error {
	_, err := ws.Energy(context.Background(), x)
	return err
}

func workspaceEnergyGrad(ws *Workspace, x, g []float64) error {
	_, err := ws.EnergyGrad(context.Background(), x, g)
	return err
}

// TestWorkspaceEnergyGradZeroAllocsWarm: after its first gradient, a
// workspace's EnergyGrad at the same point allocates nothing.
func TestWorkspaceEnergyGradZeroAllocsWarm(t *testing.T) {
	checkWorkspaceZeroAllocs(t, 1, 5, workspaceEnergyGrad)
}

// TestWorkspaceBatchZeroAllocsPerPoint: a warm workspace evaluates the
// energies of a 64-point batch without allocating, so one worker's
// share of a service batch costs nothing per point.
func TestWorkspaceBatchZeroAllocsPerPoint(t *testing.T) {
	checkWorkspaceZeroAllocs(t, 64, 6, workspaceEnergy)
}

// TestWorkspaceGradBatchZeroAllocsPerPoint: a warm workspace evaluates
// the energies and gradients of a 32-point batch without allocating.
func TestWorkspaceGradBatchZeroAllocsPerPoint(t *testing.T) {
	checkWorkspaceZeroAllocs(t, 32, 7, workspaceEnergyGrad)
}

// TestWorkspacesConcurrent runs several workspaces on one Simulator at
// once, energies and gradients mixed (run under -race in CI): each
// must reproduce the single-threaded results exactly.
func TestWorkspacesConcurrent(t *testing.T) {
	const n, p, goroutines = 8, 4, 8
	sim, err := New(n, problems.LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	xs := randomXs(rand.New(rand.NewSource(9)), 4, p)
	ctx := context.Background()
	wantE := make([]float64, len(xs))
	wantG := make([][]float64, len(xs))
	for i, x := range xs {
		wantG[i] = make([]float64, 2*p)
		if wantE[i], err = sim.EnergyGrad(ctx, x, wantG[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for k := 0; k < goroutines; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ws := sim.NewWorkspace()
			g := make([]float64, 2*p)
			for rep := 0; rep < 3; rep++ {
				for i, x := range xs {
					var e float64
					var err error
					if (k+i)%2 == 0 {
						e, err = ws.Energy(ctx, x)
					} else {
						e, err = ws.EnergyGrad(ctx, x, g)
					}
					if err != nil {
						t.Error(err)
						return
					}
					if e != wantE[i] {
						t.Errorf("goroutine %d point %d: energy %v != %v", k, i, e, wantE[i])
						return
					}
					if (k+i)%2 == 1 {
						for j := range g {
							if g[j] != wantG[i][j] {
								t.Errorf("goroutine %d point %d: grad[%d] %v != %v", k, i, j, g[j], wantG[i][j])
								return
							}
						}
					}
				}
			}
		}(k)
	}
	wg.Wait()
}

// TestWorkspaceValidation: malformed and cancelled requests return
// errors without evaluating, and the workspace keeps serving after
// them.
func TestWorkspaceValidation(t *testing.T) {
	const n, p = 6, 2
	sim, err := New(n, problems.LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws := sim.NewWorkspace()
	ctx := context.Background()
	x := []float64{0.3, 0.8, 0.5, 0.1}
	g := make([]float64, 2*p)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, tc := range []struct {
		name string
		call func() error
		is   error
	}{
		{"odd-length energy", func() error { _, err := ws.Energy(ctx, x[:3]); return err }, nil},
		{"odd-length gradient", func() error { _, err := ws.EnergyGrad(ctx, x[:3], g[:3]); return err }, nil},
		{"NaN energy", func() error {
			_, err := ws.Energy(ctx, []float64{0.3, math.NaN(), 0.5, 0.1})
			return err
		}, evaluator.ErrNonFiniteAngle},
		{"Inf gradient", func() error {
			_, err := ws.EnergyGrad(ctx, []float64{0.3, 0.8, math.Inf(1), 0.1}, g)
			return err
		}, evaluator.ErrNonFiniteAngle},
		{"short gradient", func() error { _, err := ws.EnergyGrad(ctx, x, g[:p]); return err }, nil},
		{"cancelled energy", func() error { _, err := ws.Energy(cancelled, x); return err }, context.Canceled},
		{"cancelled gradient", func() error { _, err := ws.EnergyGrad(cancelled, x, g); return err }, context.Canceled},
	} {
		err := tc.call()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.is)
		}
	}
	e, err := ws.Energy(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if want := simulateRef(t, sim, x); e != want {
		t.Errorf("after rejected requests: energy %v != %v", e, want)
	}
}

// TestWorkspaceEvaluatorContract pins the workspace's Caps and its
// output and streaming forwards against the simulator.
func TestWorkspaceEvaluatorContract(t *testing.T) {
	const n = 7
	sim, err := New(n, problems.LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws := sim.NewWorkspace()
	caps := ws.Caps()
	if caps.NumQubits != n || !caps.Grad || caps.MaxConcurrent != 1 || caps.Ranks != 1 ||
		caps.StateBytes != 2*sim.Caps().StateBytes || !caps.Outputs || !caps.Streaming {
		t.Errorf("Caps = %+v", caps)
	}
	ctx := context.Background()
	x := []float64{0.3, -0.2, 0.4, 0.1}
	spec := evaluator.OutputSpec{CVaRAlphas: []float64{1, 0.1}, Shots: 50, Seed: 9, ProbIndices: []uint64{0, 42}}
	got, err := ws.EvalOutputs(ctx, x, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.EvalOutputs(ctx, x, spec)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("EvalOutputs %+v != simulator %+v", got, want)
	}
	var streamed []uint64
	if err := ws.StreamSamples(ctx, x, spec, func(c []uint64) error {
		streamed = append(streamed, c...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(streamed) != fmt.Sprint(want.Samples) {
		t.Error("StreamSamples differs from the buffered samples")
	}
}

// TestFactoryCapsMatchBuild: a single-node build pins two states, ψ and
// λ, and the factory reports exactly the Caps of what New builds, in
// float64 and in single precision.
func TestFactoryCapsMatchBuild(t *testing.T) {
	const n = 6
	diag := problemDiag(t, n)
	for _, opts := range []Options{{}, {Backend: BackendSoA, SinglePrecision: true}} {
		f := NewFactory(n, opts, func(context.Context) (DiagSource, error) { return StaticDiag(diag), nil })
		ev, err := f.New(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		one := int64(16) << n
		if opts.SinglePrecision {
			one = 8 << n
		}
		if fc, bc := f.Caps(), ev.Caps(); fc != bc || fc.StateBytes != 2*one || fc.MaxConcurrent != 1 {
			t.Errorf("single=%v: factory Caps %+v, build Caps %+v, want StateBytes %d and MaxConcurrent 1",
				opts.SinglePrecision, fc, bc, 2*one)
		}
		if err := f.Retire(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// countedLease is a diagonal lease that counts its releases.
type countedLease struct {
	DiagSource
	released *int
}

func (l countedLease) Release() { *l.released++ }

// TestFactoryLifecycle: the first New acquires the diagonal lease,
// later builds share its simulator, the last Retire releases it, and a
// Retire of anything the factory did not build (or already retired)
// fails without touching the lease.
func TestFactoryLifecycle(t *testing.T) {
	const n = 6
	diag := problemDiag(t, n)
	var acquires, releases int
	f := NewFactory(n, Options{}, func(context.Context) (DiagSource, error) {
		acquires++
		return countedLease{StaticDiag(diag), &releases}, nil
	})
	ctx := context.Background()
	a, err := f.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if acquires != 1 {
		t.Fatalf("two builds acquired the lease %d times, want 1", acquires)
	}
	wa, wb := a.(*Workspace), b.(*Workspace)
	if wa == wb || wa.sim != wb.sim {
		t.Fatal("builds must be distinct workspaces over one shared simulator")
	}

	other := NewFactory(n, Options{}, func(context.Context) (DiagSource, error) { return StaticDiag(diag), nil })
	foreign, err := other.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for name, ev := range map[string]evaluator.Evaluator{
		"another factory's build": foreign,
		"an unbuilt workspace":    wa.sim.NewWorkspace(),
		"the simulator itself":    wa.sim,
	} {
		if err := f.Retire(ev); err == nil {
			t.Errorf("Retire of %s accepted", name)
		}
	}
	if err := f.Retire(a); err != nil {
		t.Fatal(err)
	}
	if releases != 0 {
		t.Fatal("lease released while a build is outstanding")
	}
	if err := f.Retire(a); err == nil {
		t.Error("double Retire accepted")
	}
	if err := f.Retire(b); err != nil {
		t.Fatal(err)
	}
	if releases != 1 {
		t.Fatalf("last Retire released the lease %d times, want 1", releases)
	}
	if _, err := f.New(ctx); err != nil || acquires != 2 {
		t.Fatalf("New after full release: err %v, %d acquires, want 2", err, acquires)
	}
}

// TestSweepMatchesSerialReference: for every backend, a batch fanned
// across an 8-worker service of workspaces reproduces point-at-a-time
// SimulateQAOA on the same backend bit for bit, and the serial
// reference within 1e-12 (a float32-roundoff bound for soa32).
func TestSweepMatchesSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, p, count = 10, 3, 80
	g, err := graphs.RandomRegular(n, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	instances := []struct {
		name  string
		terms poly.Terms
	}{
		{"maxcut-random-3reg", problems.MaxCutTerms(g)},
		{"random-terms", pairTripleTerms(rng, n)},
	}
	ctx := context.Background()
	for _, inst := range instances {
		xs := randomXs(rng, count, p)
		refSim, err := New(n, inst.terms, Options{Backend: BackendSerial})
		if err != nil {
			t.Fatal(err)
		}
		refE := make([]float64, count)
		for i, x := range xs {
			refE[i] = simulateRef(t, refSim, x)
		}
		for _, be := range workspaceBackends {
			t.Run(inst.name+"/"+be.name, func(t *testing.T) {
				sim, err := New(n, inst.terms, be.opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := servedWorkspaces(t, sim, 8).EnergyBatch(ctx, xs, nil)
				if err != nil {
					t.Fatal(err)
				}
				refTol := 1e-12
				if be.opts.SinglePrecision {
					refTol = 2e-4 // float32 state, ~n·p accumulating ULPs
				}
				for i, x := range xs {
					if want := simulateRef(t, sim, x); got[i] != want {
						t.Errorf("point %d: batched energy %v != point-at-a-time %v", i, got[i], want)
					}
					if d := math.Abs(got[i] - refE[i]); d > refTol {
						t.Errorf("point %d: energy %.15g vs serial reference %.15g (|Δ|=%g > %g)",
							i, got[i], refE[i], d, refTol)
					}
				}
			})
		}
	}
}

// TestSweepMixedDepths: one batch may mix depths (the INTERP workload
// evaluates p and p+1 schedules together).
func TestSweepMixedDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 8
	sim, err := New(n, problems.LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var xs [][]float64
	for p := 0; p <= 6; p++ {
		xs = append(xs, randomXs(rng, 4, p)...)
	}
	got, err := servedWorkspaces(t, sim, 5).EnergyBatch(context.Background(), xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if want := simulateRef(t, sim, x); got[i] != want {
			t.Errorf("point %d (p=%d): %v != %v", i, len(x)/2, got[i], want)
		}
	}
}

// TestSweepNoPerPointStateAllocations bounds a warm batch in bytes: the
// pooled kernels heap-allocate small per-call closures and the service
// its per-request bookkeeping, but no point may allocate a state. The
// bound is 1/8 of one state buffer per point — a fresh state per point
// would exceed it by an order of magnitude.
func TestSweepNoPerPointStateAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n, p, count = 12, 4, 64
	stateBytes := 2 * 8 * (1 << n) // SoA: Re + Im float64 slices
	sim, err := New(n, problems.LABSTerms(n), Options{Backend: BackendSoA})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		svc := servedWorkspaces(t, sim, workers)
		xs := randomXs(rng, count, p)
		out := make([]float64, count)
		if _, err := svc.EnergyBatch(ctx, xs, out); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := svc.EnergyBatch(ctx, xs, out); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if perPoint := (after.TotalAlloc - before.TotalAlloc) / count; perPoint > uint64(stateBytes)/8 {
			t.Errorf("workers=%d: %d bytes allocated per point; want ≪ one %d-byte state buffer",
				workers, perPoint, stateBytes)
		}
	}
}

// TestSweepValidation: a batch with a malformed point is rejected up
// front with the offending index, on one worker and on several.
func TestSweepValidation(t *testing.T) {
	sim, err := New(6, problems.LABSTerms(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]float64{{0.1, 0.2}, {0.1, 0.3, 0.2}}
	for _, workers := range []int{1, 4} {
		_, err := servedWorkspaces(t, sim, workers).EnergyBatch(context.Background(), bad, nil)
		if err == nil {
			t.Fatalf("workers=%d: expected error for odd-length point", workers)
		} else if !strings.Contains(err.Error(), "point 1") {
			t.Errorf("workers=%d: error %q does not name the offending point", workers, err)
		}
	}
}

// TestSweepSharedServiceConcurrent hammers one service of workspaces
// from several goroutines at once, batches and points interleaved —
// the serving scenario, and the case the race detector must bless.
func TestSweepSharedServiceConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 8
	sim, err := New(n, problems.LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := servedWorkspaces(t, sim, 4)
	xs := randomXs(rng, 24, 3)
	ctx := context.Background()
	want, err := svc.EnergyBatch(ctx, xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for k := 0; k < 8; k++ {
		go func(k int) {
			if k%2 == 1 {
				for i, x := range xs {
					e, err := svc.Energy(ctx, x)
					if err == nil && e != want[i] {
						err = fmt.Errorf("concurrent point %d: %v != %v", i, e, want[i])
					}
					if err != nil {
						done <- err
						return
					}
				}
				done <- nil
				return
			}
			got, err := svc.EnergyBatch(ctx, xs, nil)
			if err == nil {
				for i := range got {
					if got[i] != want[i] {
						err = fmt.Errorf("concurrent batch mismatch at point %d", i)
						break
					}
				}
			}
			done <- err
		}(k)
	}
	for k := 0; k < 8; k++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// errAfter is a deterministic cancellation source: a context whose Err
// turns non-nil after limit polls — so cancellation lands mid-batch at
// an exact point boundary, with no sleeps or timing assumptions.
type errAfter struct {
	limit int64
	n     atomic.Int64
}

func (c *errAfter) Deadline() (time.Time, bool)   { return time.Time{}, false }
func (c *errAfter) Done() <-chan struct{}         { return nil }
func (c *errAfter) Value(interface{}) interface{} { return nil }
func (c *errAfter) Err() error {
	if c.n.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// TestSweepCancellation pins mid-batch cancellation on one worker and
// on several: energy and gradient batches return context.Canceled
// without evaluating the rest, the service keeps serving with exact
// results, and the workspaces' warm path still allocates nothing.
func TestSweepCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, p, count = 8, 3, 64
	sim, err := New(n, problems.LABSTerms(n), Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	xs := randomXs(rng, count, p)
	grads := make([][]float64, count)
	for i := range grads {
		grads[i] = make([]float64, 2*p)
	}
	for _, workers := range []int{1, 4} {
		svc := servedWorkspaces(t, sim, workers)
		if _, err := svc.EnergyBatch(&errAfter{limit: 5}, xs, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled batch returned %v, want context.Canceled", workers, err)
		}
		got, err := svc.EnergyBatch(context.Background(), xs, nil)
		if err != nil {
			t.Fatalf("workers=%d: batch after cancellation: %v", workers, err)
		}
		if want := simulateRef(t, sim, xs[0]); got[0] != want {
			t.Errorf("workers=%d: post-cancellation result %v != %v", workers, got[0], want)
		}
		if _, err := svc.EnergyGradBatch(&errAfter{limit: 5}, xs, nil, grads); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled gradient batch returned %v", workers, err)
		}
		if _, err := svc.EnergyGradBatch(context.Background(), xs, nil, grads); err != nil {
			t.Fatalf("workers=%d: gradient batch after cancellation: %v", workers, err)
		}
	}

	// A workspace interrupted mid-request keeps its buffers warm.
	ws := sim.NewWorkspace()
	if _, err := ws.Energy(context.Background(), xs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Energy(&errAfter{limit: 0}, xs[1]); !errors.Is(err, context.Canceled) {
		t.Fatal("premise: cancellation did not land")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ws.Energy(context.Background(), xs[2]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("energy after cancellation allocated %.1f times per call, want 0", allocs)
	}
}

// TestSweepGradMatchesPointwise: EnergyGradBatch through one and four
// workspaces reproduces pointwise SimulateQAOAGrad bit for bit on every
// backend.
func TestSweepGradMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, p, count = 8, 5, 24
	ctx := context.Background()
	for _, be := range workspaceBackends {
		sim, err := New(n, problems.LABSTerms(n), be.opts)
		if err != nil {
			t.Fatal(err)
		}
		xs := randomXs(rng, count, p)
		for _, workers := range []int{1, 4} {
			grads := make([][]float64, count)
			for i := range grads {
				grads[i] = make([]float64, 2*p)
			}
			energies, err := servedWorkspaces(t, sim, workers).EnergyGradBatch(ctx, xs, nil, grads)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range xs {
				e, gG, gB, err := sim.SimulateQAOAGrad(x[:p], x[p:])
				if err != nil {
					t.Fatal(err)
				}
				if energies[i] != e {
					t.Errorf("%s workers=%d point %d: energy %v != %v", be.name, workers, i, energies[i], e)
				}
				for l := 0; l < p; l++ {
					if grads[i][l] != gG[l] || grads[i][p+l] != gB[l] {
						t.Errorf("%s workers=%d point %d layer %d: gradient mismatch", be.name, workers, i, l)
					}
				}
			}
		}
	}
}

// TestSweepGradMixedDepths: one gradient batch may mix depths, each
// point's gradient sized to its own depth.
func TestSweepGradMixedDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const n = 8
	sim, err := New(n, problems.LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var xs, grads [][]float64
	for p := 0; p <= 5; p++ {
		for _, x := range randomXs(rng, 3, p) {
			xs = append(xs, x)
			grads = append(grads, make([]float64, 2*p))
		}
	}
	energies, err := servedWorkspaces(t, sim, 4).EnergyGradBatch(context.Background(), xs, nil, grads)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		p := len(x) / 2
		e, gG, gB, err := sim.SimulateQAOAGrad(x[:p], x[p:])
		if err != nil {
			t.Fatal(err)
		}
		if energies[i] != e {
			t.Errorf("point %d (p=%d): energy %v != %v", i, p, energies[i], e)
		}
		for l := 0; l < p; l++ {
			if grads[i][l] != gG[l] || grads[i][p+l] != gB[l] {
				t.Errorf("point %d (p=%d) layer %d: gradient mismatch", i, p, l)
			}
		}
	}
}

// TestSweepGradValidation: malformed gradient batches are rejected up
// front, and an empty batch returns no results and no error.
func TestSweepGradValidation(t *testing.T) {
	sim, err := New(4, problems.LABSTerms(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := servedWorkspaces(t, sim, 2)
	ctx := context.Background()
	x := []float64{0.1, 0.2}
	for name, call := range map[string]func() error{
		"odd-length point": func() error {
			_, err := svc.EnergyGradBatch(ctx, [][]float64{{1}}, nil, [][]float64{{0}})
			return err
		},
		"short gradient": func() error {
			_, err := svc.EnergyGradBatch(ctx, [][]float64{x}, nil, [][]float64{{0}})
			return err
		},
		"missing gradient slot": func() error {
			_, err := svc.EnergyGradBatch(ctx, [][]float64{x, x}, nil, [][]float64{{0, 0}})
			return err
		},
	} {
		if err := call(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	res, err := svc.EnergyGradBatch(ctx, nil, nil, nil)
	if err != nil || len(res) != 0 {
		t.Errorf("empty batch: %v, %d results", err, len(res))
	}
}

// TestSweepGradConcurrentServices is the race-coverage test: several
// services, each over its own workspaces, drive gradient batches and
// single evaluations against one shared Simulator at once (run under
// -race in CI).
func TestSweepGradConcurrentServices(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const n, p = 8, 4
	sim, err := New(n, problems.LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	xs := randomXs(rng, 16, p)
	newGrads := func() [][]float64 {
		grads := make([][]float64, len(xs))
		for i := range grads {
			grads[i] = make([]float64, 2*p)
		}
		return grads
	}
	shared := servedWorkspaces(t, sim, 4)
	want, err := shared.EnergyGradBatch(context.Background(), xs, nil, newGrads())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		svc := shared
		if k%2 == 1 {
			svc = servedWorkspaces(t, sim, 2)
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got, err := svc.EnergyGradBatch(context.Background(), xs, nil, newGrads())
			if err != nil {
				t.Error(err)
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("goroutine %d: point %d energy %v != %v", k, i, got[i], want[i])
				}
			}
		}(k)
	}
	wg.Wait()
}

// TestSweepGradNoPerPointStateAllocations bounds warm gradient batches:
// no point may allocate state-sized buffers (each worker's workspace
// holds its ψ/λ pair). The residual per-point allocations are kernel
// launch overhead — goroutine closures and per-chunk partial slices, a
// fixed cost per Pool call that a gradient pays ~4× as often as a
// forward simulation but that does not scale with 2^n — so the bound is
// half of one state buffer, an order of magnitude under the 2 × state
// bytes a fresh pair per point would cost. The kernel pool is pinned at
// 4 workers to keep the launch overhead machine-independent.
func TestSweepGradNoPerPointStateAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	const n, p, count = 12, 4, 64
	stateBytes := 2 * 8 * (1 << n) // SoA: Re + Im float64 slices
	sim, err := New(n, problems.LABSTerms(n), Options{Backend: BackendSoA, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		svc := servedWorkspaces(t, sim, workers)
		xs := randomXs(rng, count, p)
		grads := make([][]float64, count)
		for i := range grads {
			grads[i] = make([]float64, 2*p)
		}
		out := make([]float64, count)
		if _, err := svc.EnergyGradBatch(ctx, xs, out, grads); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := svc.EnergyGradBatch(ctx, xs, out, grads); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if perPoint := (after.TotalAlloc - before.TotalAlloc) / count; perPoint > uint64(stateBytes)/2 {
			t.Errorf("workers=%d: %d bytes allocated per point; want ≪ one fresh %d-byte ψ/λ pair",
				workers, perPoint, 2*stateBytes)
		}
	}
}

// BenchmarkBatchEvaluation compares the two ways to evaluate a 64-point
// parameter batch against one precomputed diagonal at paper-scale sizes
// (n = 16–20, p = 10): point-at-a-time SimulateQAOA (a fresh state per
// point) versus one batch request through a service of GOMAXPROCS
// workspaces (each worker reusing its own state). Run with -benchmem:
// the batched B/op stays flat in batch size where point-at-a-time pays
// one 2^n state per point.
//
//	go test ./internal/core -bench BatchEvaluation -benchtime 2x -benchmem
func BenchmarkBatchEvaluation(b *testing.B) {
	const p, count = 10, 64
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	for _, n := range []int{16, 18, 20} {
		sim, err := New(n, problems.LABSTerms(n), Options{Backend: BackendSoA})
		if err != nil {
			b.Fatal(err)
		}
		xs := randomXs(rng, count, p)
		b.Run(fmt.Sprintf("point-at-a-time/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, x := range xs {
					r, err := sim.SimulateQAOA(x[:p], x[p:])
					if err != nil {
						b.Fatal(err)
					}
					_ = r.Expectation()
				}
			}
		})
		b.Run(fmt.Sprintf("batched/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			evs := make([]evaluator.Evaluator, runtime.GOMAXPROCS(0))
			for i := range evs {
				evs[i] = sim.NewWorkspace()
			}
			svc, err := serve.New(evs, serve.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			out := make([]float64, count)
			if _, err := svc.EnergyBatch(ctx, xs, out); err != nil { // warm-up
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.EnergyBatch(ctx, xs, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
