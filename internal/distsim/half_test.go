package distsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"qokit/internal/cluster"
	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

// halfProblem is one flip-symmetric cost of the half-shard suite. grid
// is the cost the coded column runs: the terms themselves when their
// diagonal is an exact uint16 grid, else the weights rounded to the
// finest grid step, 1/16.
type halfProblem struct {
	name        string
	terms, grid poly.Terms
}

func halfProblems(t *testing.T, n int) []halfProblem {
	t.Helper()
	g, err := graphs.RandomRegular(n, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	sk := problems.SKTerms(n, 6)
	const step = 1.0 / 16
	skGrid := make(poly.Terms, len(sk))
	for i, term := range sk {
		skGrid[i] = poly.NewTerm(math.Round(term.Weight/step)*step, term.Vars...)
	}
	labs, maxcut := problems.LABSTerms(n), problems.MaxCutTerms(g)
	return []halfProblem{
		{"labs", labs, labs},
		{"maxcut", maxcut, maxcut},
		{"sk", sk, skGrid},
	}
}

// fullShardEngine builds an engine that keeps full shards on a cost
// that would take half shards: the form every engine ran before.
func fullShardEngine(t *testing.T, n int, terms poly.Terms, opts Options) *GradEngine {
	t.Helper()
	k, err := opts.validate(n)
	if err != nil {
		t.Fatal(err)
	}
	full := costvec.Precompute(poly.Compile(terms), n)
	size := len(full) >> uint(k)
	diags := make([][]float64, opts.Ranks)
	for r := range diags {
		diags[r] = full[r*size : (r+1)*size]
	}
	e, err := newEngine(n, opts, rankCosts(diags, false), false)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestHalfShardRule pins which engines take half shards: the x mixer on
// a bitwise flip-symmetric cost with n ≥ 2 and 2k ≤ n − 2, decided the
// same way by NewGradEngine and by a Factory over the full diagonal.
// xy mixers, a cost with an odd-degree term and rank counts with
// 2k > n − 2 keep full shards.
func TestHalfShardRule(t *testing.T) {
	const n = 8
	ctx := context.Background()
	probs := halfProblems(t, n)
	labs := probs[0].terms
	cases := []struct {
		name  string
		n     int
		terms poly.Terms
		opts  Options
		half  bool
	}{
		{"labs K=1", n, labs, Options{Ranks: 1}, true},
		{"labs K=8 (2k = n−2)", n, labs, Options{Ranks: 8}, true},
		{"labs K=16 (2k > n−2)", n, labs, Options{Ranks: 16}, false},
		{"labs n=2 K=1", 2, problems.LABSTerms(2), Options{Ranks: 1}, true},
		{"labs n=3 K=2 (2k > n−2)", 3, problems.LABSTerms(3), Options{Ranks: 2}, false},
		{"maxcut float32", n, probs[1].terms, Options{Ranks: 4, Precision: PrecisionFloat32}, true},
		{"sk pairwise", n, probs[2].terms, Options{Ranks: 2, Algo: cluster.Pairwise}, true},
		{"odd-degree cost", n, oddCost(n), Options{Ranks: 4}, false},
		{"labs xy-ring", n, labs, Options{Ranks: 4, Mixer: core.MixerXYRing}, false},
		{"labs xy-complete", n, labs, Options{Ranks: 2, Mixer: core.MixerXYComplete}, false},
	}
	for _, tc := range cases {
		eng, err := NewGradEngine(tc.n, tc.terms, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		f, err := NewFactory(tc.n, tc.terms, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		built, err := f.NewGradEngine(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantLocal := tc.n - eng.k
		if tc.half {
			wantLocal--
		}
		for _, e := range []*GradEngine{eng, built} {
			if e.half != tc.half || e.localQubits() != wantLocal {
				t.Errorf("%s: half=%v with %d local qubits, want half=%v with %d", tc.name, e.half, e.localQubits(), tc.half, wantLocal)
			}
		}
		if err := f.Retire(built); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHalfShardTraffic pins the wire contract of half shards on LABS:
// per rank, exactly half the bytes of the full-shard Algorithm 4 closed
// form, at the message and sync counts of full shards (the odd-degree
// cost at the same n, K and p), for both all-to-all algorithms; and a
// gradient still moves 3× the forward bytes and messages.
func TestHalfShardTraffic(t *testing.T) {
	const n, p = 8, 3
	ctx := context.Background()
	rng := rand.New(rand.NewSource(81))
	gamma, beta := randomAngles(rng, p)
	labs := problems.LABSTerms(n)
	for _, algo := range []cluster.AlltoallAlgo{cluster.Transpose, cluster.Pairwise} {
		for _, ranks := range []int{2, 4, 8} {
			opts := Options{Ranks: ranks, Algo: algo}
			k, err := opts.validate(n)
			if err != nil {
				t.Fatal(err)
			}
			sub := int64(1<<uint(n-k)) / int64(ranks)
			fullForward := int64(2*p) * int64(ranks-1) * sub * 16
			half, err := SimulateQAOA(ctx, n, labs, gamma, beta, opts)
			if err != nil {
				t.Fatal(err)
			}
			full, err := SimulateQAOA(ctx, n, oddCost(n), gamma, beta, opts)
			if err != nil {
				t.Fatal(err)
			}
			halfGrad, err := simulateGrad(ctx, n, labs, gamma, beta, opts)
			if err != nil {
				t.Fatal(err)
			}
			fullGrad, err := simulateGrad(ctx, n, oddCost(n), gamma, beta, opts)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < ranks; r++ {
				h, f := half.PerRank[r], full.PerRank[r]
				if 2*h.BytesSent != fullForward || f.BytesSent != fullForward {
					t.Errorf("%v K=%d rank %d: forward sent %d B (full shards %d B), want %d = half of %d",
						algo, ranks, r, h.BytesSent, f.BytesSent, fullForward/2, fullForward)
				}
				if h.Messages != f.Messages || h.Syncs != f.Syncs {
					t.Errorf("%v K=%d rank %d: forward %d msgs / %d syncs, full shards %d / %d",
						algo, ranks, r, h.Messages, h.Syncs, f.Messages, f.Syncs)
				}
				hg, fg := halfGrad.PerRank[r], fullGrad.PerRank[r]
				if hg.BytesSent != 3*h.BytesSent || hg.Messages != 3*h.Messages {
					t.Errorf("%v K=%d rank %d: gradient moved %d B in %d msgs, want 3× forward (%d B, %d msgs)",
						algo, ranks, r, hg.BytesSent, hg.Messages, 3*h.BytesSent, 3*h.Messages)
				}
				if 2*hg.BytesSent != fg.BytesSent || hg.Messages != fg.Messages || hg.Syncs != fg.Syncs {
					t.Errorf("%v K=%d rank %d: gradient (%d B, %d msgs, %d syncs), full shards (%d B, %d, %d)",
						algo, ranks, r, hg.BytesSent, hg.Messages, hg.Syncs, fg.BytesSent, fg.Messages, fg.Syncs)
				}
			}
		}
	}
}

// halfEval is everything one engine returns at one point.
type halfEval struct {
	energy float64
	grad   []float64
	out    *evaluator.Outputs
	stream []uint64
}

// evalAll runs EnergyGrad, EvalOutputs and StreamSamples on eng at x.
func evalAll(t *testing.T, eng *GradEngine, x []float64, spec evaluator.OutputSpec) halfEval {
	t.Helper()
	ctx := context.Background()
	h := halfEval{grad: make([]float64, len(x))}
	var err error
	if h.energy, err = eng.EnergyGrad(ctx, x, h.grad); err != nil {
		t.Fatal(err)
	}
	if h.out, err = eng.EvalOutputs(ctx, x, spec); err != nil {
		t.Fatal(err)
	}
	err = eng.StreamSamples(ctx, x, spec, func(chunk []uint64) error {
		h.stream = append(h.stream, chunk...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// sameEval reports the first field where a and b differ bitwise.
func sameEval(a, b halfEval) error {
	ao, bo := a.out, b.out
	if a.energy != b.energy || ao.Energy != bo.Energy || ao.Overlap != bo.Overlap || ao.MinCost != bo.MinCost ||
		ao.Variance != bo.Variance || ao.MaxProb != bo.MaxProb || ao.MaxProbIndex != bo.MaxProbIndex {
		return fmt.Errorf("scalars differ: %+v vs %+v", *ao, *bo)
	}
	for _, pair := range [][2][]float64{{a.grad, b.grad}, {ao.CVaR, bo.CVaR}, {ao.Probs, bo.Probs}} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				return fmt.Errorf("entry %d: %v vs %v", i, pair[0][i], pair[1][i])
			}
		}
	}
	for i := range ao.Samples {
		if ao.Samples[i] != bo.Samples[i] {
			return fmt.Errorf("shot %d: %d vs %d", i, ao.Samples[i], bo.Samples[i])
		}
	}
	return nil
}

// halfChiSquared is the goodness-of-fit statistic of samples against
// the n-qubit distribution probs over 20 bins: ten runs of
// probability-ranked states of about equal mass, each split at 2^(n−1),
// so a draw that never (or always) takes the mirror of its
// representative fails. A sample with zero reference probability
// returns +Inf.
func halfChiSquared(probs []float64, samples []uint64) float64 {
	const runs = 10
	order := make([]int, len(probs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return probs[order[a]] > probs[order[b]] })
	binOf := make([]int, len(probs))
	b, acc := 0, 0.0
	for _, x := range order {
		binOf[x] = 2 * b
		if x >= len(probs)/2 {
			binOf[x]++
		}
		acc += probs[x]
		if acc > float64(b+1)/runs && b < runs-1 {
			b++
		}
	}
	want := make([]float64, 2*runs)
	for x, p := range probs {
		want[binOf[x]] += p * float64(len(samples))
	}
	got := make([]float64, 2*runs)
	for _, x := range samples {
		got[binOf[x]]++
	}
	var chi2 float64
	for i := range got {
		if want[i] == 0 {
			if got[i] > 0 {
				return math.Inf(1)
			}
			continue
		}
		d := got[i] - want[i]
		chi2 += d * d / want[i]
	}
	return chi2
}

// TestHalfShardGradAndOutputsMatchSingleNode is the half-shard
// differential: LABS, MaxCut and SK × K ∈ {1, 2, 4, 8} × p ∈ {1, 4, 12}
// on half shards against the single-node Serial engine, which keeps the
// full state: its energy and gradient, and brute-force outputs over its
// 2^n probabilities (bruteOutputs). Energy, gradient, Overlap, MinCost,
// CVaR, Variance, MaxProb and ProbIndices on both sides of 2^(n−1)
// agree to rtol 1e-10
// in float64 and within the SoA32 band (2e-3) in float32; MaxProbIndex
// attains the maximum and is the lower index of its mirror pair; the
// shots pass a χ² test against the full distribution (df = 19,
// p = 1e-5) and stream exactly as they buffer; Gather returns all 2^n
// amplitudes. Results on slices held as codes alone, shots included,
// equal float64 ones bit for bit (SK on its weights rounded to the 1/16
// step, an exact grid).
func TestHalfShardGradAndOutputsMatchSingleNode(t *testing.T) {
	const n, rtol, band, shots = 8, 1e-10, 2e-3, 10_000
	ctx := context.Background()
	rng := rand.New(rand.NewSource(83))
	queries := []uint64{0, 5, 1<<(n-1) - 1, 1 << (n - 1), 1<<n - 6, 1<<n - 1}
	for _, prob := range halfProblems(t, n) {
		single, err := core.New(n, prob.terms, core.Options{Backend: core.BackendSerial})
		if err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{1, 2, 4, 8} {
			engine := func(terms poly.Terms, opts Options) *GradEngine {
				eng, err := NewGradEngine(n, terms, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !eng.half {
					t.Fatalf("%s K=%d %+v: runs full shards", prob.name, ranks, opts)
				}
				return eng
			}
			f64 := engine(prob.terms, Options{Ranks: ranks})
			f32 := engine(prob.terms, Options{Ranks: ranks, Precision: PrecisionFloat32})
			grid := engine(prob.grid, Options{Ranks: ranks})
			quant := formEngine(t, n, prob.grid, Options{Ranks: ranks}, codesOnly)
			if !quant.half {
				t.Fatalf("%s K=%d coded: runs full shards", prob.name, ranks)
			}
			for _, p := range []int{1, 4, 12} {
				gamma, beta := randomAngles(rng, p)
				x := append(append([]float64(nil), gamma...), beta...)
				where := fmt.Sprintf("%s K=%d p=%d", prob.name, ranks, p)
				spec := evaluator.OutputSpec{
					CVaRAlphas: []float64{1, 0.5, 0.1}, ProbIndices: queries, Variance: true,
					Shots: shots, Seed: int64(17 * p),
				}
				refE, refGG, refGB, err := single.SimulateQAOAGrad(gamma, beta)
				if err != nil {
					t.Fatal(err)
				}
				refGrad := append(append([]float64(nil), refGG...), refGB...)
				refState, err := single.SimulateQAOA(gamma, beta)
				if err != nil {
					t.Fatal(err)
				}
				probs := refState.Probabilities(nil, true)
				want := bruteOutputs(probs, single.CostDiagonal(), single.GroundStates(), spec.CVaRAlphas)
				var maxP float64
				for _, q := range probs {
					maxP = math.Max(maxP, q)
				}
				for _, c := range []struct {
					name string
					eng  *GradEngine
					tol  float64
				}{{"float64", f64, rtol}, {"float32", f32, band}} {
					got := evalAll(t, c.eng, x, spec)
					out := got.out
					near := func(what string, a, b float64) {
						if d := rtolDiff(a, b); d > c.tol && math.Abs(a-b) > c.tol {
							t.Errorf("%s %s: %s = %v, single-node %v", where, c.name, what, a, b)
						}
					}
					near("energy", got.energy, refE)
					scale := math.Max(maxAbs(refGrad), 1)
					for i := range refGrad {
						if d := math.Abs(got.grad[i] - refGrad[i]); d > c.tol*scale {
							t.Errorf("%s %s: gradient %d = %v, single-node %v", where, c.name, i, got.grad[i], refGrad[i])
						}
					}
					near("Energy", out.Energy, refE)
					near("Overlap", out.Overlap, want.overlap)
					near("MinCost", out.MinCost, single.MinCost())
					near("Variance", out.Variance, want.variance)
					near("MaxProb", out.MaxProb, maxP)
					for i := range want.cvar {
						near(fmt.Sprintf("CVaR(%v)", spec.CVaRAlphas[i]), out.CVaR[i], want.cvar[i])
					}
					for i, q := range queries {
						near(fmt.Sprintf("prob[%d]", q), out.Probs[i], probs[q])
					}
					near("prob at MaxProbIndex", probs[out.MaxProbIndex], maxP)
					// A state and its mirror tie exactly; the lower one wins.
					if out.MaxProbIndex >= 1<<(n-1) {
						t.Errorf("%s %s: MaxProbIndex %d is not the lower of its mirror pair", where, c.name, out.MaxProbIndex)
					}
					if chi2 := halfChiSquared(probs, out.Samples); chi2 > 57.373 {
						t.Errorf("%s %s: χ² = %v over 20 bins exceeds 57.373 (p < 1e-5)", where, c.name, chi2)
					}
					if len(got.stream) != shots {
						t.Fatalf("%s %s: streamed %d shots, want %d", where, c.name, len(got.stream), shots)
					}
					for i := range got.stream {
						if got.stream[i] != out.Samples[i] {
							t.Errorf("%s %s: shot %d streamed %d, buffered %d", where, c.name, i, got.stream[i], out.Samples[i])
							break
						}
					}
				}
				if err := sameEval(evalAll(t, quant, x, spec), evalAll(t, grid, x, spec)); err != nil {
					t.Errorf("%s: results on coded slices differ from float64: %v", where, err)
				}

				res, err := SimulateQAOA(ctx, n, prob.terms, gamma, beta, Options{Ranks: ranks, Gather: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.State) != 1<<n {
					t.Fatalf("%s: Gather returned %d amplitudes, want %d", where, len(res.State), 1<<n)
				}
				if d := statevec.MaxAbsDiff(res.State, refState.StateVector()); d > 1e-11 {
					t.Errorf("%s: gathered state differs by %g", where, d)
				}
			}
		}
	}
}

// TestHalfShardResumeBitIdentical is the half-shard durability check: a
// run killed mid-collective leaves a snapshot of the full state, as full
// shards write it, and resumes from it bit-identical to an
// uninterrupted half-shard run, in every shard representation (LABS
// n = 8 on float64 slices, codedProblem on slices held as codes alone);
// and a snapshot written by full shards (its mirror amplitudes rounded
// independently) resumes within rounding of the uninterrupted run.
func TestHalfShardResumeBitIdentical(t *testing.T) {
	ctx := context.Background()
	codedN, codedTerms := codedProblem(t)
	gamma := []float64{0.35, -0.2, 0.5, 0.1}
	beta := []float64{0.4, 0.15, -0.3, 0.25}
	for _, c := range []struct {
		name  string
		n     int
		terms poly.Terms
		opts  Options
	}{
		{"labs", 8, problems.LABSTerms(8), Options{Ranks: 1}},
		{"labs", 8, problems.LABSTerms(8), Options{Ranks: 4, Algo: cluster.Transpose}},
		{"labs", 8, problems.LABSTerms(8), Options{Ranks: 8}},
		{"labs", 8, problems.LABSTerms(8), Options{Ranks: 4, Precision: PrecisionFloat32}},
		{"coded", codedN, codedTerms, Options{Ranks: 2}},
	} {
		n, terms, opts := c.n, c.terms, c.opts
		name := fmt.Sprintf("%s K=%d %v", c.name, opts.Ranks, opts.Precision)
		base, err := SimulateQAOA(ctx, n, terms, gamma, beta, opts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "half.ckpt")
		ck := CheckpointOptions{Path: path}
		boom := errors.New("node failure")
		killed := opts
		// Snapshots follow every layer; the kill lands in layer 3, at
		// its capture on one rank, inside its second all-to-all on K ranks.
		killed.fault = killAt(0, "Barrier", 4, boom)
		if opts.Ranks > 1 {
			killed.fault = killAt(opts.Ranks-1, "Alltoall", 5, boom)
		}
		if _, err := SimulateQAOACheckpointed(ctx, n, terms, gamma, beta, killed, ck); !errors.Is(err, boom) {
			t.Fatalf("%s: killed run returned %v, want the injected fault", name, err)
		}
		snap, err := LoadShardSnapshot(path)
		if err != nil {
			t.Fatalf("%s: no snapshot after the kill: %v", name, err)
		}
		// The file holds the full state, as full shards write it: every
		// amplitude at x and at its mirror, with unit norm.
		amp := func(x int) complex128 {
			size := (1 << n) / opts.Ranks
			if snap.Precision == PrecisionFloat32 {
				return complex(float64(snap.Re[x/size][x%size]), float64(snap.Im[x/size][x%size]))
			}
			return snap.Shards[x/size][x%size]
		}
		var norm float64
		for x := 0; x < 1<<n; x++ {
			a := amp(x)
			norm += real(a)*real(a) + imag(a)*imag(a)
			if a != amp(1<<n-1-x) {
				t.Fatalf("%s: snapshot amplitude %d is %v, its mirror %v", name, x, a, amp(1<<n-1-x))
			}
		}
		if math.Abs(norm-1) > 1e-5 {
			t.Errorf("%s: snapshot norm² %v, want 1", name, norm)
		}
		res, err := SimulateQAOACheckpointed(ctx, n, terms, gamma, beta, opts, ck)
		if err != nil {
			t.Fatalf("%s: resumed run failed: %v", name, err)
		}
		if res.Expectation != base.Expectation || res.Overlap != base.Overlap || res.MinCost != base.MinCost {
			t.Errorf("%s: resumed (%v, %v, %v), uninterrupted (%v, %v, %v)", name,
				res.Expectation, res.Overlap, res.MinCost, base.Expectation, base.Overlap, base.MinCost)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: completed run left the checkpoint behind (stat: %v)", name, err)
		}

		// A full-shard snapshot after two layers: its mirror amplitudes
		// differ from the representatives' in the last bits.
		const layer = 2
		full := fullShardEngine(t, n, terms, opts)
		if err := full.eval(ctx, &run{gamma: gamma[:layer], beta: beta[:layer]}); err != nil {
			t.Fatal(err)
		}
		fs := &ShardSnapshot{
			N: n, Ranks: opts.Ranks, Mixer: core.MixerX, HammingWeight: n / 2,
			Precision: opts.Precision,
			Layer:     layer, GammaPrefix: gamma[:layer], BetaPrefix: beta[:layer],
		}
		if opts.Precision == PrecisionFloat32 {
			for _, ev := range full.all[0].shards {
				sh := ev.(*shard[float32])
				fs.Re = append(fs.Re, sh.psi.re)
				fs.Im = append(fs.Im, sh.psi.im)
			}
		} else {
			for _, ev := range full.all[0].shards {
				fs.Shards = append(fs.Shards, ev.(*shard[float64]).psi.vec())
			}
		}
		if err := SaveShardSnapshot(path, fs); err != nil {
			t.Fatal(err)
		}
		res, err = SimulateQAOACheckpointed(ctx, n, terms, gamma, beta, opts, ck)
		if err != nil {
			t.Fatalf("%s: resume from a full-shard snapshot failed: %v", name, err)
		}
		tol := 1e-12
		if opts.Precision == PrecisionFloat32 {
			tol = 1e-5
		}
		if d := math.Abs(res.Expectation - base.Expectation); d > tol*math.Max(math.Abs(base.Expectation), 1) {
			t.Errorf("%s: resumed from a full-shard snapshot at energy %v, uninterrupted %v", name, res.Expectation, base.Expectation)
		}
		if d := math.Abs(res.Overlap - base.Overlap); d > tol {
			t.Errorf("%s: resumed from a full-shard snapshot at overlap %v, uninterrupted %v", name, res.Overlap, base.Overlap)
		}
	}
}
