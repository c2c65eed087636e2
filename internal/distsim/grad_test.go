package distsim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"qokit/internal/cluster"
	"qokit/internal/core"
	"qokit/internal/evaluator"
	"qokit/internal/graphs"
	"qokit/internal/optimize"
	"qokit/internal/poly"
	"qokit/internal/problems"
)

func maxAbs(xs ...[]float64) float64 {
	var m float64
	for _, v := range xs {
		for _, x := range v {
			if a := math.Abs(x); a > m {
				m = a
			}
		}
	}
	return m
}

// gradResult is one adjoint-gradient evaluation with the traffic it
// moved.
type gradResult struct {
	Energy              float64
	GradGamma, GradBeta []float64
	Comm                cluster.Counters
	PerRank             []cluster.Counters
}

// simulateGrad evaluates the energy and adjoint gradient on a fresh
// engine, so the engine's counters hold that one evaluation's traffic.
func simulateGrad(ctx context.Context, n int, terms poly.Terms, gamma, beta []float64, opts Options) (*gradResult, error) {
	eng, err := NewGradEngine(n, terms, opts)
	if err != nil {
		return nil, err
	}
	res := &gradResult{GradGamma: make([]float64, len(gamma)), GradBeta: make([]float64, len(beta))}
	if res.Energy, err = eng.EnergyGradAngles(ctx, gamma, beta, res.GradGamma, res.GradBeta); err != nil {
		return nil, err
	}
	res.Comm, res.PerRank = eng.Counters(), eng.perRank()
	return res, nil
}

// outputsOnce serves spec on a fresh engine.
func outputsOnce(n int, terms poly.Terms, gamma, beta []float64, opts Options, spec evaluator.OutputSpec) (*evaluator.Outputs, error) {
	eng, err := NewGradEngine(n, terms, opts)
	if err != nil {
		return nil, err
	}
	return eng.EvalOutputs(context.Background(), append(append([]float64(nil), gamma...), beta...), spec)
}

func randomAngles(rng *rand.Rand, p int) (gamma, beta []float64) {
	gamma = make([]float64, p)
	beta = make([]float64, p)
	for i := range gamma {
		gamma[i] = rng.Float64() - 0.5
		beta[i] = rng.Float64() - 0.5
	}
	return gamma, beta
}

// TestDistributedGradMatchesSingleNode is the acceptance matrix: the
// distributed adjoint gradient reproduces core.SimulateQAOAGrad to
// rtol 1e-10 for ranks ∈ {1,2,4,8} × both mixer families (transverse-
// field x and the Hamming-weight-preserving xy ring/complete) ×
// p ∈ {1,4,12}, on both problem shapes (quadratic MaxCut, quartic
// LABS).
func TestDistributedGradMatchesSingleNode(t *testing.T) {
	const n = 8
	const rtol = 1e-10
	rng := rand.New(rand.NewSource(73))
	g, err := graphs.RandomRegular(n, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	problemSet := map[string]poly.Terms{
		"maxcut": problems.MaxCutTerms(g),
		"labs":   problems.LABSTerms(n),
	}
	mixers := []core.Mixer{core.MixerX, core.MixerXYRing, core.MixerXYComplete}

	for probName, terms := range problemSet {
		for _, mixer := range mixers {
			single, err := core.New(n, terms, core.Options{Backend: core.BackendSerial, Mixer: mixer})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 4, 12} {
				gamma, beta := randomAngles(rng, p)
				refE, refGG, refGB, err := single.SimulateQAOAGrad(gamma, beta)
				if err != nil {
					t.Fatal(err)
				}
				scale := math.Max(maxAbs(refGG, refGB), 1)
				for _, ranks := range []int{1, 2, 4, 8} {
					res, err := simulateGrad(context.Background(), n, terms, gamma, beta, Options{
						Ranks: ranks, Algo: cluster.Transpose, Mixer: mixer,
					})
					if err != nil {
						t.Fatalf("%s %v K=%d p=%d: %v", probName, mixer, ranks, p, err)
					}
					if d := math.Abs(res.Energy - refE); d > rtol*math.Max(math.Abs(refE), 1) {
						t.Errorf("%s %v K=%d p=%d: energy differs by %g", probName, mixer, ranks, p, d)
					}
					for l := 0; l < p; l++ {
						if d := math.Abs(res.GradGamma[l] - refGG[l]); d > rtol*scale {
							t.Errorf("%s %v K=%d p=%d: ∂γ_%d differs by %g (scale %g)", probName, mixer, ranks, p, l, d, scale)
						}
						if d := math.Abs(res.GradBeta[l] - refGB[l]); d > rtol*scale {
							t.Errorf("%s %v K=%d p=%d: ∂β_%d differs by %g (scale %g)", probName, mixer, ranks, p, l, d, scale)
						}
					}
				}
			}
		}
	}
}

// TestDistributedGradPairwiseAlgo spot-checks that the gradient is
// algorithm-independent: the pairwise all-to-all backend produces the
// same derivatives as the transpose backend.
func TestDistributedGradPairwiseAlgo(t *testing.T) {
	n, p := 8, 3
	terms := problems.LABSTerms(n)
	rng := rand.New(rand.NewSource(74))
	gamma, beta := randomAngles(rng, p)
	a, err := simulateGrad(context.Background(), n, terms, gamma, beta, Options{Ranks: 4, Algo: cluster.Transpose})
	if err != nil {
		t.Fatal(err)
	}
	b, err := simulateGrad(context.Background(), n, terms, gamma, beta, Options{Ranks: 4, Algo: cluster.Pairwise})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < p; l++ {
		if a.GradGamma[l] != b.GradGamma[l] || a.GradBeta[l] != b.GradBeta[l] {
			t.Errorf("layer %d: transpose (%g, %g) vs pairwise (%g, %g)",
				l, a.GradGamma[l], a.GradBeta[l], b.GradGamma[l], b.GradBeta[l])
		}
	}
}

// TestGradCommStaysMixerShaped pins the communication contract: the
// reverse pass replays the forward mixer collectives once per adjoint
// state, so a gradient evaluation moves exactly 3× the forward run's
// bytes and messages — the per-layer scalar/vector all-reduces are
// accounted as synchronization only. Checked for both mixer families
// and, for the transverse-field mixer, against the closed-form
// Algorithm 4 volume. LABS plus Z₀ and Z₁ fields keeps full shards
// (TestHalfShardTraffic pins group shards).
func TestGradCommStaysMixerShaped(t *testing.T) {
	const n, p, ranks = 8, 3, 4
	terms := fixedCost(n)
	rng := rand.New(rand.NewSource(75))
	gamma, beta := randomAngles(rng, p)

	for _, mixer := range []core.Mixer{core.MixerX, core.MixerXYRing, core.MixerXYComplete} {
		opts := Options{Ranks: ranks, Algo: cluster.Transpose, Mixer: mixer}
		fwd, err := SimulateQAOA(context.Background(), n, terms, gamma, beta, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := simulateGrad(context.Background(), n, terms, gamma, beta, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Comm.BytesSent != 3*fwd.Comm.BytesSent {
			t.Errorf("%v: grad moved %d bytes, want 3× forward mixer volume %d", mixer, res.Comm.BytesSent, 3*fwd.Comm.BytesSent)
		}
		if res.Comm.Messages != 3*fwd.Comm.Messages {
			t.Errorf("%v: grad sent %d messages, want 3× forward %d", mixer, res.Comm.Messages, 3*fwd.Comm.Messages)
		}
	}

	// Transverse-field closed form: per rank, 2p forward + 4p reverse
	// all-to-alls, each moving (K−1) subchunks of 2^{n−k}/K amplitudes.
	k := 2 // log2(4)
	sub := (1 << uint(n-k)) / ranks
	res, err := simulateGrad(context.Background(), n, terms, gamma, beta, Options{Ranks: ranks, Algo: cluster.Transpose})
	if err != nil {
		t.Fatal(err)
	}
	wantPerRank := int64(6*p) * int64(ranks-1) * int64(sub) * 16
	for r, ctr := range res.PerRank {
		if ctr.BytesSent != wantPerRank {
			t.Errorf("rank %d sent %d bytes, want %d", r, ctr.BytesSent, wantPerRank)
		}
		if ctr.Messages != int64(6*p)*int64(ranks-1) {
			t.Errorf("rank %d sent %d messages, want %d", r, ctr.Messages, 6*p*(ranks-1))
		}
	}
}

// TestGradEngineReuse drives one engine through repeated evaluations
// at several depths and checks each against a fresh single-shot run —
// the buffer-reuse contract of the optimizer path.
func TestGradEngineReuse(t *testing.T) {
	n := 8
	terms := problems.LABSTerms(n)
	eng, err := NewGradEngine(n, terms, Options{Ranks: 4, Algo: cluster.Transpose})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(76))
	for iter := 0; iter < 4; iter++ {
		p := 1 + iter
		gamma, beta := randomAngles(rng, p)
		gg := make([]float64, p)
		gb := make([]float64, p)
		e1, err := eng.EnergyGradAngles(context.Background(), gamma, beta, gg, gb)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := simulateGrad(context.Background(), n, terms, gamma, beta, Options{Ranks: 4, Algo: cluster.Transpose})
		if err != nil {
			t.Fatal(err)
		}
		if e1 != fresh.Energy {
			t.Errorf("iter %d: reused engine energy %g, fresh %g", iter, e1, fresh.Energy)
		}
		for l := 0; l < p; l++ {
			if gg[l] != fresh.GradGamma[l] || gb[l] != fresh.GradBeta[l] {
				t.Errorf("iter %d layer %d: reused (%g, %g) vs fresh (%g, %g)",
					iter, l, gg[l], gb[l], fresh.GradGamma[l], fresh.GradBeta[l])
			}
		}
	}
}

// TestFlatObjectiveAdamMatchesSingleNode runs the same Adam
// optimization through the distributed FlatObjective and through a
// single-node workspace: identical trajectories, identical optimum (the
// distributed objective is a drop-in).
func TestFlatObjectiveAdamMatchesSingleNode(t *testing.T) {
	n, p := 8, 3
	terms := problems.LABSTerms(n)
	g0, b0 := optimize.TQAInit(p, 0.75)
	x0 := optimize.JoinAngles(g0, b0)
	opt := optimize.AdamOptions{MaxIter: 25}

	eng, err := NewGradEngine(n, terms, Options{Ranks: 4, Algo: cluster.Transpose})
	if err != nil {
		t.Fatal(err)
	}
	var distErr error
	distRes := optimize.Adam(eng.FlatObjective(context.Background(), &distErr), x0, opt)
	if distErr != nil {
		t.Fatal(distErr)
	}

	single, err := core.New(n, terms, core.Options{Backend: core.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	var singleErr error
	ws := single.NewWorkspace()
	singleRes := optimize.Adam(func(x, g []float64) float64 {
		e, err := ws.EnergyGrad(context.Background(), x, g)
		if err != nil && singleErr == nil {
			singleErr = err
		}
		return e
	}, x0, opt)
	if singleErr != nil {
		t.Fatal(singleErr)
	}

	if distRes.Evals != singleRes.Evals {
		t.Errorf("evals: distributed %d, single %d", distRes.Evals, singleRes.Evals)
	}
	if d := math.Abs(distRes.F - singleRes.F); d > 1e-9 {
		t.Errorf("optimum differs by %g: distributed %v, single %v", d, distRes.F, singleRes.F)
	}
	for i := range distRes.X {
		if d := math.Abs(distRes.X[i] - singleRes.X[i]); d > 1e-9 {
			t.Errorf("x[%d] differs by %g", i, d)
		}
	}
}

// TestGradValidationNamesFields asserts every option-validation error
// names the offending Options field, so misconfigurations are
// self-diagnosing.
func TestGradValidationNamesFields(t *testing.T) {
	terms := problems.LABSTerms(4)
	cases := []struct {
		opts Options
		want string
	}{
		{Options{Ranks: 0}, "Options.Ranks"},
		{Options{Ranks: 3}, "Options.Ranks"},
		{Options{Ranks: 8}, "Options.Ranks"}, // 2k > n
		{Options{Ranks: 2, Mixer: core.Mixer(99)}, "Options.Mixer"},
		{Options{Ranks: 2, Mixer: core.MixerXYRing, HammingWeight: 9}, "Options.HammingWeight"},
	}
	for _, tc := range cases {
		if _, err := NewGradEngine(4, terms, tc.opts); err == nil {
			t.Errorf("opts %+v accepted", tc.opts)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("opts %+v: error %q does not name %s", tc.opts, err, tc.want)
		}
		if _, err := SimulateQAOA(context.Background(), 4, terms, nil, nil, tc.opts); err == nil {
			t.Errorf("SimulateQAOA opts %+v accepted", tc.opts)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("SimulateQAOA opts %+v: error %q does not name %s", tc.opts, err, tc.want)
		}
	}

	eng, err := NewGradEngine(4, terms, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EnergyGradAngles(context.Background(), []float64{1}, []float64{1, 2}, []float64{0}, []float64{0}); err == nil {
		t.Error("mismatched angle lengths accepted")
	}
	if _, err := eng.EnergyGradAngles(context.Background(), []float64{1}, []float64{1}, nil, nil); err == nil {
		t.Error("missing gradient storage accepted")
	}
}

// TestGradEngineLeases pins the engine's one rank-group lease: it is
// allocated on first use, a second acquire waits until cancelled
// while it is out, and a released lease serves the next evaluation
// again instead of a new allocation.
func TestGradEngineLeases(t *testing.T) {
	terms := problems.LABSTerms(8)
	eng, err := NewGradEngine(8, terms, Options{Ranks: 4, Algo: cluster.Transpose})
	if err != nil {
		t.Fatal(err)
	}
	if eng.lease != nil {
		t.Fatal("engine allocated a lease before its first evaluation")
	}
	ctx := context.Background()
	l, err := eng.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A second acquire must block until its context is cancelled.
	blocked, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := eng.acquire(blocked)
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("second acquire did not block (err %v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked acquire returned %v, want context.Canceled", err)
	}
	eng.release(false)
	// The released lease serves evaluations again without growth.
	gg, gb := make([]float64, 2), make([]float64, 2)
	for i := 0; i < 2; i++ {
		if _, err := eng.EnergyGradAngles(ctx, []float64{0.3, 0.1}, []float64{0.2, 0.4}, gg, gb); err != nil {
			t.Fatal(err)
		}
		if eng.lease != l {
			t.Fatalf("evaluation %d after release replaced the lease", i)
		}
	}
}

// TestGradEngineConcurrentEvaluations hammers distributed engines from
// several goroutines (run under -race in CI), for both mixer families:
// each goroutine on its own engine of one factory, so rank groups of
// different engines read the shared shard engine at once, and all
// goroutines on one engine, taking turns on its lease. Every caller
// must reproduce the single-flight results exactly.
func TestGradEngineConcurrentEvaluations(t *testing.T) {
	const n, p, goroutines, reps = 8, 3, 4, 3
	terms := problems.LABSTerms(n)
	rng := rand.New(rand.NewSource(81))
	gamma, beta := randomAngles(rng, p)
	for _, mixer := range []core.Mixer{core.MixerX, core.MixerXYRing} {
		opts := Options{Ranks: 4, Algo: cluster.Transpose, Mixer: mixer}
		ref, err := simulateGrad(context.Background(), n, terms, gamma, beta, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, shared := range []bool{false, true} {
			engs := concurrentEngines(t, n, terms, opts, goroutines, shared)
			var wg sync.WaitGroup
			for _, eng := range engs {
				wg.Add(1)
				go func(eng *GradEngine) {
					defer wg.Done()
					gg := make([]float64, p)
					gb := make([]float64, p)
					for r := 0; r < reps; r++ {
						e, err := eng.EnergyGradAngles(context.Background(), gamma, beta, gg, gb)
						if err != nil {
							t.Error(err)
							return
						}
						if e != ref.Energy {
							t.Errorf("%v shared=%v: concurrent energy %v != %v", mixer, shared, e, ref.Energy)
							return
						}
						for l := 0; l < p; l++ {
							if gg[l] != ref.GradGamma[l] || gb[l] != ref.GradBeta[l] {
								t.Errorf("%v shared=%v: concurrent gradient layer %d mismatch", mixer, shared, l)
								return
							}
						}
						// Forward-only energies interleave with gradients.
						x := append(append([]float64(nil), gamma...), beta...)
						fe, err := eng.Energy(context.Background(), x)
						if err != nil {
							t.Error(err)
							return
						}
						if fe != ref.Energy {
							t.Errorf("%v shared=%v: concurrent Energy %v != %v", mixer, shared, fe, ref.Energy)
							return
						}
					}
				}(eng)
			}
			wg.Wait()
		}
	}
}

// concurrentEngines returns count engines for count concurrent callers:
// distinct builds of one factory over a terms-built stored form, which
// share one shard engine, or with shared one engine count times.
func concurrentEngines(t *testing.T, n int, terms poly.Terms, opts Options, count int, shared bool) []*GradEngine {
	t.Helper()
	f, err := NewFactoryFromSource(n, terms, opts, leaseTerms(n, terms))
	if err != nil {
		t.Fatal(err)
	}
	engs := make([]*GradEngine, count)
	for i := range engs {
		if shared && i > 0 {
			engs[i] = engs[0]
			continue
		}
		if engs[i], err = f.NewGradEngine(context.Background()); err != nil {
			t.Fatal(err)
		}
		if engs[i].eng != engs[0].eng {
			t.Fatal("two builds of one factory hold different shard engines")
		}
	}
	return engs
}

// TestGradEngineCancellation: cancelling mid-evaluation releases every
// rank (no deadlock), surfaces ctx.Err(), discards the poisoned lease,
// and the engine keeps serving on a fresh one.
func TestGradEngineCancellation(t *testing.T) {
	const n = 8
	terms := problems.LABSTerms(n)
	eng, err := NewGradEngine(n, terms, Options{Ranks: 4, Algo: cluster.Transpose})
	if err != nil {
		t.Fatal(err)
	}
	// A deep schedule: thousands of collectives, so the cancel lands
	// mid-run with overwhelming margin.
	const p = 4000
	gamma := make([]float64, p)
	beta := make([]float64, p)
	for i := range gamma {
		gamma[i], beta[i] = 0.01, 0.02
	}
	gg := make([]float64, p)
	gb := make([]float64, p)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := eng.EnergyGradAngles(ctx, gamma, beta, gg, gb)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled evaluation returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled evaluation deadlocked")
	}
	// The poisoned lease was dropped — its state buffers are not
	// pinned by the engine (only its counters survive, folded into
	// the dead-lease snapshot).
	eng.mu.Lock()
	live := eng.lease
	deadBytes := eng.deadTotal.BytesSent
	eng.mu.Unlock()
	if live != nil {
		t.Error("cancelled lease still held by the engine")
	}
	if deadBytes == 0 {
		t.Error("cancelled lease's traffic was not folded into the dead-lease counters")
	}
	// The engine recovers on a fresh lease, which later evaluations
	// reuse; the counters keep the poisoned lease's traffic.
	e2, err := eng.EnergyGradAngles(context.Background(), gamma[:2], beta[:2], gg[:2], gb[:2])
	if err != nil {
		t.Fatalf("evaluation after cancellation: %v", err)
	}
	fresh := eng.lease
	if fresh == nil {
		t.Fatal("no lease after the evaluation that followed cancellation")
	}
	if _, err := eng.EnergyGradAngles(context.Background(), gamma[:2], beta[:2], gg[:2], gb[:2]); err != nil {
		t.Fatal(err)
	}
	if eng.lease != fresh {
		t.Error("the replacement lease was not reused")
	}
	if got := eng.Counters().BytesSent; got <= deadBytes {
		t.Errorf("Counters().BytesSent = %d after recovery, want more than the dropped lease's %d", got, deadBytes)
	}
	ref, err := simulateGrad(context.Background(), n, terms, gamma[:2], beta[:2], Options{Ranks: 4, Algo: cluster.Transpose})
	if err != nil {
		t.Fatal(err)
	}
	if e2 != ref.Energy {
		t.Errorf("post-cancellation energy %v != %v", e2, ref.Energy)
	}
}

// TestWarmEngineAllocsBounded pins the allocations of a warm engine's
// Energy and EnergyGrad on LABS n = 14 at p = 8 as an upper bound: the
// energy counts measured before the shard engine moved into
// internal/shard, the gradient counts since the x-mixer reverse step
// runs in the Walsh basis (98/271 before).
func TestWarmEngineAllocsBounded(t *testing.T) {
	const n, p = 14, 8
	x := make([]float64, 2*p)
	for i := range x {
		x[i] = 0.1 + 0.05*float64(i)
	}
	grad := make([]float64, 2*p)
	ctx := context.Background()
	for _, c := range []struct {
		ranks        int
		energy, grad float64
	}{{1, 49, 50}, {2, 125, 127}} {
		e, err := NewGradEngine(n, problems.LABSTerms(n), Options{Ranks: c.ranks})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.EnergyGrad(ctx, x, grad); err != nil {
			t.Fatal(err)
		}
		energy := testing.AllocsPerRun(3, func() { e.Energy(ctx, x) })
		grads := testing.AllocsPerRun(3, func() { e.EnergyGrad(ctx, x, grad) })
		if energy > c.energy || grads > c.grad {
			t.Errorf("K=%d: warm Energy/EnergyGrad allocate %v/%v times, want at most %v/%v", c.ranks, energy, grads, c.energy, c.grad)
		}
	}
}
