package distsim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"qokit/internal/core"
	"qokit/internal/evaluator"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/sampling"
)

func rtolDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return d
	}
	return d / scale
}

// bruteRef holds the brute-force reference outputs of one state.
type bruteRef struct {
	cvar              []float64
	overlap, variance float64
}

// bruteOutputs computes the reference outputs from a state's 2^n
// probabilities and costs, independently of the output stage: CVaR from
// the (cost, probability) pairs sorted by cost, any shortfall of the
// mass charged at the largest cost carrying mass; the overlap as the
// mass of the ground states; and the variance by two passes.
func bruteOutputs(probs, diag []float64, ground []uint64, alphas []float64) bruteRef {
	type pair struct{ c, p float64 }
	pairs := make([]pair, 0, len(probs))
	var w, mean float64
	for x, p := range probs {
		if p > 0 {
			pairs = append(pairs, pair{diag[x], p})
		}
		w += p
		mean += p * diag[x]
	}
	mean /= w
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].c < pairs[b].c })
	var ref bruteRef
	for _, alpha := range alphas {
		remaining := alpha
		var acc, last float64
		for _, e := range pairs {
			last = e.c
			if e.p >= remaining {
				acc += remaining * e.c
				remaining = 0
				break
			}
			acc += e.p * e.c
			remaining -= e.p
		}
		if remaining > 1e-12 {
			acc += remaining * last
		}
		ref.cvar = append(ref.cvar, acc/alpha)
	}
	for _, x := range ground {
		ref.overlap += probs[x]
	}
	for x, p := range probs {
		ref.variance += p * (diag[x] - mean) * (diag[x] - mean)
	}
	ref.variance /= w
	return ref
}

// TestDistributedCVaROverlapMatchSingleNode is the tentpole acceptance
// differential: gather-free CVaR, overlap, most-probable-state, and
// per-index probabilities computed on sharded states must match a
// brute-force reference over the single-node state (bruteOutputs) to
// rtol 1e-10 over ranks {1, 2, 4, 8}. Slices held as codes alone give
// the same outputs bit for bit (TestShardCostFormsMatchBitwise).
func TestDistributedCVaROverlapMatchSingleNode(t *testing.T) {
	const rtol = 1e-10
	rng := rand.New(rand.NewSource(71))
	n := 8
	ts := problems.LABSTerms(n)
	p := 3
	gamma := make([]float64, p)
	beta := make([]float64, p)
	for i := range gamma {
		gamma[i] = rng.Float64() - 0.5
		beta[i] = rng.Float64() - 0.5
	}
	alphas := []float64{1, 0.5, 0.1, 0.02}

	single, err := core.New(n, ts, core.Options{Backend: core.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	refProbs := ref.Probabilities(nil, true)
	want := bruteOutputs(refProbs, single.CostDiagonal(), single.GroundStates(), alphas)
	queries := []uint64{0, 7, 128, 255}

	for _, ranks := range []int{1, 2, 4, 8} {
		spec := evaluator.OutputSpec{CVaRAlphas: alphas, ProbIndices: queries}
		res, err := outputsOnce(n, ts, gamma, beta,
			Options{Ranks: ranks}, spec)
		if err != nil {
			t.Fatalf("K=%d: %v", ranks, err)
		}
		if d := rtolDiff(res.Energy, ref.Expectation()); d > rtol {
			t.Errorf("K=%d: expectation rtol %g", ranks, d)
		}
		if d := rtolDiff(res.Overlap, want.overlap); d > rtol {
			t.Errorf("K=%d: overlap rtol %g", ranks, d)
		}
		if d := rtolDiff(res.MinCost, single.MinCost()); d > rtol {
			t.Errorf("K=%d: min cost rtol %g", ranks, d)
		}
		for i := range alphas {
			if d := rtolDiff(res.CVaR[i], want.cvar[i]); d > rtol {
				t.Errorf("K=%d: CVaR(%v) = %v, want %v (rtol %g)",
					ranks, alphas[i], res.CVaR[i], want.cvar[i], d)
			}
		}
		for i, q := range queries {
			if d := rtolDiff(res.Probs[i], refProbs[q]); d > rtol {
				t.Errorf("K=%d: prob[%d] rtol %g", ranks, q, d)
			}
		}
		// Most probable state: the index must attain the global max.
		if d := rtolDiff(res.MaxProb, refProbs[res.MaxProbIndex]); d > rtol {
			t.Errorf("K=%d: MaxProb %v but prob[%d]=%v",
				ranks, res.MaxProb, res.MaxProbIndex, refProbs[res.MaxProbIndex])
		}
		wantMax := 0.0
		for _, pr := range refProbs {
			if pr > wantMax {
				wantMax = pr
			}
		}
		if d := rtolDiff(res.MaxProb, wantMax); d > rtol {
			t.Errorf("K=%d: MaxProb %v, want %v", ranks, res.MaxProb, wantMax)
		}
	}
}

// TestDistributedVarianceMatchesSingleNode: the Welford second-moment
// allreduce must reproduce the cost variance of the single-node state,
// computed by two passes over its 2^n probabilities (bruteOutputs), to
// rtol 1e-10 over every rank count, and float32 shards must land in a
// coarse band of it. An unset spec leaves the field zero.
func TestDistributedVarianceMatchesSingleNode(t *testing.T) {
	const rtol = 1e-10
	rng := rand.New(rand.NewSource(43))
	n := 8
	ts := problems.LABSTerms(n)
	p := 3
	gamma := make([]float64, p)
	beta := make([]float64, p)
	for i := range gamma {
		gamma[i] = rng.Float64() - 0.5
		beta[i] = rng.Float64() - 0.5
	}

	single, err := core.New(n, ts, core.Options{Backend: core.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteOutputs(ref.Probabilities(nil, true), single.CostDiagonal(), nil, nil).variance

	for _, ranks := range []int{1, 2, 4} {
		res, err := outputsOnce(n, ts, gamma, beta,
			Options{Ranks: ranks}, evaluator.OutputSpec{Variance: true})
		if err != nil {
			t.Fatalf("K=%d: %v", ranks, err)
		}
		if d := rtolDiff(res.Variance, want); d > rtol {
			t.Errorf("K=%d: Variance = %v, want %v (rtol %g)", ranks, res.Variance, want, d)
		}
	}

	// Float32 dynamics carry single-precision error; the variance must
	// still land within a coarse band of the float64 value.
	res32, err := outputsOnce(n, ts, gamma, beta,
		Options{Ranks: 4, Precision: PrecisionFloat32}, evaluator.OutputSpec{Variance: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := rtolDiff(res32.Variance, want); d > 1e-4 {
		t.Errorf("float32 K=4: Variance rtol %g vs float64 reference", d)
	}

	// An unset spec leaves the field zero — no hidden second pass.
	plain, err := outputsOnce(n, ts, gamma, beta, Options{Ranks: 2}, evaluator.OutputSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Variance != 0 {
		t.Errorf("Variance = %v without OutputSpec.Variance", plain.Variance)
	}
}

// TestDistributedOutputsXYMixer covers the restricted-subspace path:
// CVaR and overlap over a ring-xy evolution must match the single-node
// values, and the infeasible subspace (exactly-zero amplitudes) must
// never contribute.
func TestDistributedOutputsXYMixer(t *testing.T) {
	const rtol = 1e-10
	n := 8
	ts := problems.LABSTerms(n)
	gamma := []float64{0.3, -0.2}
	beta := []float64{0.4, 0.1}
	alphas := []float64{1, 0.25, 0.05}

	single, err := core.New(n, ts, core.Options{Backend: core.BackendSerial, Mixer: core.MixerXYRing})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteOutputs(ref.Probabilities(nil, true), single.CostDiagonal(), single.GroundStates(), alphas)
	for _, ranks := range []int{1, 2, 4} {
		res, err := outputsOnce(n, ts, gamma, beta,
			Options{Ranks: ranks, Mixer: core.MixerXYRing}, evaluator.OutputSpec{CVaRAlphas: alphas})
		if err != nil {
			t.Fatalf("K=%d: %v", ranks, err)
		}
		if d := rtolDiff(res.Overlap, want.overlap); d > rtol {
			t.Errorf("K=%d: overlap rtol %g", ranks, d)
		}
		if d := rtolDiff(res.MinCost, single.MinCost()); d > rtol {
			t.Errorf("K=%d: min cost %v, want %v", ranks, res.MinCost, single.MinCost())
		}
		for i := range alphas {
			if d := rtolDiff(res.CVaR[i], want.cvar[i]); d > rtol {
				t.Errorf("K=%d: CVaR(%v) = %v, want %v (rtol %g)",
					ranks, alphas[i], res.CVaR[i], want.cvar[i], d)
			}
		}
	}
}

// TestDistributedOutputsFloat32 checks the float32 shard path two
// ways. The rtol-1e-10 check is against a reference reconstructed from
// the float32 state itself (all 2^n probabilities via ProbIndices, the
// exact cost diagonal) — that isolates the output algorithms from the
// single-precision dynamics error. A coarse band against the float64
// values then bounds that dynamics error.
func TestDistributedOutputsFloat32(t *testing.T) {
	const rtol = 1e-10
	n := 8
	ts := problems.LABSTerms(n)
	gamma := []float64{0.3, -0.2, 0.15}
	beta := []float64{0.4, 0.1, -0.3}
	alphas := []float64{1, 0.5, 0.1, 0.02}

	single, err := core.New(n, ts, core.Options{Backend: core.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	diag := single.CostDiagonal()

	all := make([]uint64, 1<<uint(n))
	for i := range all {
		all[i] = uint64(i)
	}
	for _, ranks := range []int{1, 2, 4, 8} {
		res, err := outputsOnce(n, ts, gamma, beta,
			Options{Ranks: ranks, Precision: PrecisionFloat32},
			evaluator.OutputSpec{CVaRAlphas: alphas, ProbIndices: all})
		if err != nil {
			t.Fatalf("K=%d: %v", ranks, err)
		}
		// Reconstruct the exact outputs of THIS float32 state.
		probs := res.Probs
		want := bruteOutputs(probs, diag, nil, alphas)
		for i := range alphas {
			if d := rtolDiff(res.CVaR[i], want.cvar[i]); d > rtol {
				t.Errorf("K=%d: CVaR(%v) = %v, reconstructed %v (rtol %g)",
					ranks, alphas[i], res.CVaR[i], want.cvar[i], d)
			}
		}
		var wantOverlap float64
		for x, p := range probs {
			if diag[x] <= res.MinCost+1e-9 {
				wantOverlap += p
			}
		}
		if d := rtolDiff(res.Overlap, wantOverlap); d > rtol {
			t.Errorf("K=%d: overlap %v, reconstructed %v", ranks, res.Overlap, wantOverlap)
		}
		// Single-precision dynamics stays in a coarse band of float64.
		if d := math.Abs(res.Energy - ref.Expectation()); d > 2e-3 {
			t.Errorf("K=%d: float32 expectation drifted %g from float64", ranks, d)
		}
		if d := math.Abs(res.Overlap - ref.Overlap()); d > 2e-3 {
			t.Errorf("K=%d: float32 overlap drifted %g from float64", ranks, d)
		}
	}
}

// TestTwoStageSamplingChiSquared: the two-stage distributed draw and a
// single-node alias draw over the full distribution must agree as
// distributions. Two-sample χ² over ~10 probability-ranked bins of
// roughly equal mass; the critical value is hardcoded for p = 0.01.
func TestTwoStageSamplingChiSquared(t *testing.T) {
	n := 8
	ts := problems.LABSTerms(n)
	gamma := []float64{0.3, -0.2}
	beta := []float64{0.4, 0.1}
	shots := 200000

	single, err := core.New(n, ts, core.Options{Backend: core.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	probs := ref.Probabilities(nil, true)
	sampler, err := sampling.NewSampler(probs, 909)
	if err != nil {
		t.Fatal(err)
	}

	// Bins: states ranked by single-node probability, grouped greedily
	// into runs of ≈1/B total mass each.
	const bins = 10
	order := make([]int, len(probs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return probs[order[a]] > probs[order[b]] })
	binOf := make([]int, len(probs))
	b, acc := 0, 0.0
	for _, x := range order {
		binOf[x] = b
		acc += probs[x]
		if acc > float64(b+1)/bins && b < bins-1 {
			b++
		}
	}

	for _, ranks := range []int{2, 8} {
		res, err := outputsOnce(n, ts, gamma, beta,
			Options{Ranks: ranks}, evaluator.OutputSpec{Shots: shots, Seed: 4242})
		if err != nil {
			t.Fatalf("K=%d: %v", ranks, err)
		}
		if len(res.Samples) != shots {
			t.Fatalf("K=%d: %d samples, want %d", ranks, len(res.Samples), shots)
		}
		a := make([]float64, bins)
		bb := make([]float64, bins)
		for i := 0; i < shots; i++ {
			a[binOf[res.Samples[i]]]++
			bb[binOf[sampler.Sample()]]++
		}
		var chi2 float64
		for i := 0; i < bins; i++ {
			if a[i]+bb[i] == 0 {
				continue
			}
			d := a[i] - bb[i]
			chi2 += d * d / (a[i] + bb[i])
		}
		// χ²(df=9) critical value at p = 0.01.
		if chi2 > 21.666 {
			t.Errorf("K=%d: two-sample χ² = %v exceeds 21.666 (p < 0.01)", ranks, chi2)
		}
	}
}

// TestTwoStageSamplingDeterministic: a fixed seed reproduces the exact
// shot sequence, and every shot is a valid index.
func TestTwoStageSamplingDeterministic(t *testing.T) {
	n := 6
	ts := problems.LABSTerms(n)
	gamma := []float64{0.3}
	beta := []float64{0.4}
	run := func() []uint64 {
		res, err := outputsOnce(n, ts, gamma, beta,
			Options{Ranks: 4}, evaluator.OutputSpec{Shots: 500, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res.Samples
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shot %d: %d vs %d under the same seed", i, a[i], b[i])
		}
		if a[i]>>uint(n) != 0 {
			t.Fatalf("shot %d: index %d out of range", i, a[i])
		}
	}
}

// TestEngineOutputsMatchStandalone: EvalOutputs on a warm leased rank
// group returns the same values as a fresh engine's first call, for
// float64 and float32 shards and for slices held as codes alone
// (codedProblem).
func TestEngineOutputsMatchStandalone(t *testing.T) {
	const rtol = 1e-10
	gamma := []float64{0.3, -0.2}
	beta := []float64{0.4, 0.1}
	alphas := []float64{1, 0.1}
	spec := evaluator.OutputSpec{CVaRAlphas: alphas, Shots: 64, Seed: 11, ProbIndices: []uint64{0, 255}}
	codedN, codedTerms := codedProblem(t)

	for _, c := range []struct {
		n    int
		ts   poly.Terms
		opts Options
	}{
		{8, problems.LABSTerms(8), Options{Ranks: 4}},
		{codedN, codedTerms, Options{Ranks: 4}},
		{8, problems.LABSTerms(8), Options{Ranks: 4, Precision: PrecisionFloat32}},
	} {
		n, ts, opts := c.n, c.ts, c.opts
		ref, err := outputsOnce(n, ts, gamma, beta, opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewGradEngine(n, ts, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.EvalOutputs(context.Background(), []float64{0.1, 0.2, 0.3, 0.4}, spec); err != nil {
			t.Fatal(err)
		}
		res, err := e.EvalOutputs(context.Background(), append(append([]float64{}, gamma...), beta...), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Caps().Outputs {
			t.Error("engine Caps().Outputs = false")
		}
		if d := rtolDiff(res.Energy, ref.Energy); d > rtol {
			t.Errorf("%+v: expectation rtol %g", opts, d)
		}
		if d := rtolDiff(res.Overlap, ref.Overlap); d > rtol {
			t.Errorf("%+v: overlap rtol %g", opts, d)
		}
		for i := range alphas {
			if d := rtolDiff(res.CVaR[i], ref.CVaR[i]); d > rtol {
				t.Errorf("%+v: CVaR(%v) rtol %g", opts, alphas[i], d)
			}
		}
		for i := range spec.ProbIndices {
			if d := rtolDiff(res.Probs[i], ref.Probs[i]); d > rtol {
				t.Errorf("%+v: prob[%d] rtol %g", opts, i, d)
			}
		}
		if len(res.Samples) != spec.Shots || len(res.CVaR) != len(alphas) {
			t.Errorf("%+v: EvalOutputs lengths %d/%d", opts, len(res.Samples), len(res.CVaR))
		}
		for i := range ref.Samples {
			if res.Samples[i] != ref.Samples[i] {
				t.Errorf("%+v: shot %d differs: %d vs %d", opts, i, res.Samples[i], ref.Samples[i])
				break
			}
		}
	}
}

// TestEngineOutputsConcurrent exercises concurrent EvalOutputs calls
// interleaved with Energy calls (run under -race in CI), each caller on
// its own engine of one factory and all on one engine
// (concurrentEngines).
func TestEngineOutputsConcurrent(t *testing.T) {
	n := 7
	ts := problems.LABSTerms(n)
	opts := Options{Ranks: 2}
	e, err := NewGradEngine(n, ts, opts)
	if err != nil {
		t.Fatal(err)
	}
	spec := evaluator.OutputSpec{CVaRAlphas: []float64{0.5}, Shots: 100, Seed: 3}
	x := []float64{0.3, 0.4}
	want, err := e.EvalOutputs(context.Background(), x, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantE, err := e.Energy(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for _, shared := range []bool{false, true} {
		var wg sync.WaitGroup
		errs := make(chan error, 24)
		for w, eng := range concurrentEngines(t, n, ts, opts, 12, shared) {
			wg.Add(1)
			go func(w int, eng *GradEngine) {
				defer wg.Done()
				if w%2 == 0 {
					res, err := eng.EvalOutputs(context.Background(), x, spec)
					if err != nil {
						errs <- err
						return
					}
					if res.CVaR[0] != want.CVaR[0] || res.Overlap != want.Overlap {
						t.Errorf("shared=%v: concurrent EvalOutputs diverged", shared)
					}
				} else {
					got, err := eng.Energy(context.Background(), x)
					if err != nil {
						errs <- err
						return
					}
					if math.Abs(got-wantE) > 1e-12 {
						t.Errorf("shared=%v: concurrent Energy diverged", shared)
					}
				}
			}(w, eng)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestCVaROrderConcurrentFirstUse: two engines of one factory computing
// CVaR at once both reach the lazy build of each rank slice's cost
// order in their shared shard engine (run under -race), on coded and
// on float64 slices, and both match a lone engine bit for bit.
func TestCVaROrderConcurrentFirstUse(t *testing.T) {
	ctx := context.Background()
	x := []float64{0.3, -0.2, 0.4, 0.1}
	spec := evaluator.OutputSpec{CVaRAlphas: []float64{0.5, 0.1}}
	codedN, codedTerms := codedProblem(t)
	for _, c := range []struct {
		n  int
		ts poly.Terms
	}{{codedN, codedTerms}, {8, fixedCost(8)}} {
		ref, err := NewGradEngine(c.n, c.ts, Options{Ranks: 2})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.EvalOutputs(ctx, x, spec)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFactoryFromSource(c.n, c.ts, Options{Ranks: 2}, leaseTerms(c.n, c.ts))
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			eng, err := f.NewGradEngine(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got, err := eng.EvalOutputs(ctx, x, spec)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range want.CVaR {
					if got.CVaR[i] != want.CVaR[i] {
						t.Errorf("n=%d: concurrent CVaR(%v) = %v, single-flight %v", c.n, spec.CVaRAlphas[i], got.CVaR[i], want.CVaR[i])
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

// TestOutputsValidation: bad specs name the field, and the zero spec
// still serves the always-present outputs.
func TestOutputsValidation(t *testing.T) {
	n := 6
	ts := problems.LABSTerms(n)
	if _, err := outputsOnce(n, ts, []float64{0.1}, []float64{0.2},
		Options{Ranks: 2}, evaluator.OutputSpec{CVaRAlphas: []float64{0}}); err == nil {
		t.Error("CVaR level 0 accepted")
	}
	if _, err := outputsOnce(n, ts, []float64{0.1}, []float64{0.2},
		Options{Ranks: 2}, evaluator.OutputSpec{ProbIndices: []uint64{1 << uint(n)}}); err == nil {
		t.Error("out-of-range probability index accepted")
	}
	if err := (evaluator.OutputSpec{Shots: -1}).Validate(n); err == nil {
		t.Error("negative Shots accepted")
	}
	res, err := outputsOnce(n, ts, []float64{0.1}, []float64{0.2},
		Options{Ranks: 2}, evaluator.OutputSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != nil || res.CVaR != nil || res.Probs != nil {
		t.Error("zero spec filled optional outputs")
	}
	if res.MaxProb <= 0 {
		t.Error("zero spec skipped always-present outputs")
	}
}

// TestStreamSamplesMatchesBuffered: the chunked distributed sample
// stream must reproduce the buffered EvalOutputs shot sequence exactly —
// same two-stage samplers, same seeds, chunking invisible — across
// rank counts, shard representations (codedProblem's slices hold codes
// alone), and the restricted-subspace mixer. 10 000 shots cross two
// SampleChunkSize boundaries.
func TestStreamSamplesMatchesBuffered(t *testing.T) {
	gamma := []float64{0.3, -0.2}
	beta := []float64{0.4, 0.1}
	x := append(append([]float64{}, gamma...), beta...)
	const shots = 10_000
	spec := evaluator.OutputSpec{Shots: shots, Seed: 11}
	codedN, codedTerms := codedProblem(t)
	for _, c := range []struct {
		n    int
		ts   poly.Terms
		opts Options
	}{
		{8, problems.LABSTerms(8), Options{Ranks: 1}},
		{8, problems.LABSTerms(8), Options{Ranks: 4}},
		{codedN, codedTerms, Options{Ranks: 4}},
		{8, problems.LABSTerms(8), Options{Ranks: 4, Precision: PrecisionFloat32}},
		{8, problems.LABSTerms(8), Options{Ranks: 2, Mixer: core.MixerXYRing}},
	} {
		n, ts, opts := c.n, c.ts, c.opts
		e, err := NewGradEngine(n, ts, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Caps().Streaming {
			t.Errorf("%+v: Caps().Streaming = false", opts)
		}
		want, err := e.EvalOutputs(context.Background(), x, spec)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]uint64, 0, shots)
		var sizes []int
		err = e.StreamSamples(context.Background(), x, spec, func(chunk []uint64) error {
			sizes = append(sizes, len(chunk))
			got = append(got, chunk...)
			return nil
		})
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if len(got) != shots {
			t.Fatalf("%+v: streamed %d shots, want %d", opts, len(got), shots)
		}
		for i, s := range sizes {
			if i < len(sizes)-1 && s != evaluator.SampleChunkSize {
				t.Errorf("%+v: chunk %d has %d shots, want %d", opts, i, s, evaluator.SampleChunkSize)
			}
		}
		for i := range got {
			if got[i] != want.Samples[i] {
				t.Errorf("%+v: shot %d differs: streamed %d, buffered %d", opts, i, got[i], want.Samples[i])
				break
			}
		}
	}
}

// TestStreamSamplesLargeShotCount: streaming is exempt from
// MaxShotsPerRequest (its memory is one chunk, not the shot count), so
// a shot count the buffered path rejects must stream through.
func TestStreamSamplesLargeShotCount(t *testing.T) {
	if testing.Short() {
		t.Skip("streams over a million shots")
	}
	n := 6
	ts := problems.LABSTerms(n)
	e, err := NewGradEngine(n, ts, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, 0.4}
	spec := evaluator.OutputSpec{Shots: evaluator.MaxShotsPerRequest + 5, Seed: 7}
	if _, err := e.EvalOutputs(context.Background(), x, spec); err == nil {
		t.Error("buffered path accepted Shots beyond MaxShotsPerRequest")
	}
	total := 0
	err = e.StreamSamples(context.Background(), x, spec, func(chunk []uint64) error {
		total += len(chunk)
		for _, s := range chunk[:1] { // spot-check indices stay in range
			if s>>uint(n) != 0 {
				t.Fatalf("sampled index %d outside the %d-qubit range", s, n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != spec.Shots {
		t.Errorf("streamed %d shots, want %d", total, spec.Shots)
	}
}

// TestStreamSamplesFnError: a non-nil fn error aborts the stream on
// every rank, comes back verbatim, and leaves the engine serving
// subsequent requests (the poisoned lease is dropped, not the engine).
func TestStreamSamplesFnError(t *testing.T) {
	n := 7
	ts := problems.LABSTerms(n)
	e, err := NewGradEngine(n, ts, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, 0.4}
	sentinel := errors.New("sink full")
	calls := 0
	err = e.StreamSamples(context.Background(), x, evaluator.OutputSpec{Shots: 3 * evaluator.SampleChunkSize, Seed: 1},
		func(chunk []uint64) error {
			calls++
			if calls == 2 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("StreamSamples error = %v, want the fn sentinel", err)
	}
	if calls != 2 {
		t.Errorf("fn ran %d times after aborting on call 2", calls)
	}
	// Zero shots: fn never runs, no error.
	if err := e.StreamSamples(context.Background(), x, evaluator.OutputSpec{}, func([]uint64) error {
		t.Error("fn called with zero shots")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The engine still serves full requests after the aborted stream.
	if _, err := e.Energy(context.Background(), x); err != nil {
		t.Fatalf("Energy after aborted stream: %v", err)
	}
	got := 0
	if err := e.StreamSamples(context.Background(), x, evaluator.OutputSpec{Shots: 100, Seed: 1}, func(chunk []uint64) error {
		got += len(chunk)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Errorf("stream after abort delivered %d shots, want 100", got)
	}
}
