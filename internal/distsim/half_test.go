package distsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
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

// engineOver builds an engine that stores the state over the group
// the pivots generate (nil: full shards) on a cost whose own rule may
// pick another group, precomputing the stored cost form over it as
// NewGradEngine does.
func engineOver(t *testing.T, n int, terms poly.Terms, opts Options, pivots []uint64) *GradEngine {
	t.Helper()
	k, err := opts.validate(n)
	if err != nil {
		t.Fatal(err)
	}
	sym := shard.SymmetryFor(pivots, false, n, k, true)
	if len(sym.Pivots) != len(pivots) {
		t.Fatalf("n=%d K=%d cannot hold pivots %b", n, opts.Ranks, pivots)
	}
	compiled := poly.Compile(terms)
	_, flip := costvec.TermPivots(n, compiled.Masks)
	form, err := costvec.NewStored(statevec.NewPool(1), compiled, n, sym.Pivots, flip)
	if err != nil {
		t.Fatal(err)
	}
	se, err := shardEngine(n, opts, sym, form)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(n, opts, se)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// holds reports whether n qubits on 2^k ranks can store the state
// over the group the pivots generate.
func holds(pivots []uint64, n, k int) bool {
	return len(shard.SymmetryFor(pivots, false, n, k, true).Pivots) > 0
}

// labsPivots returns LABS's two pivots at even n: the flips of the even
// and of the odd positions, carrying qubits n−2 and n−1.
func labsPivots(n int) []uint64 {
	even := uint64(0)
	for q := 0; q < n; q += 2 {
		even |= 1 << uint(q)
	}
	return []uint64{even, even << 1}
}

// TestHalfShardRule pins which group the shards store the state over:
// the pivots of the term group (costvec.TermPivots) when the rank
// layout holds them, else the complement when the cost is
// flip-symmetric and 2k ≤ n − 2, else none, decided the same way by
// NewGradEngine, by a Factory over the terms and by a Factory over a
// registry entry. LABS takes h = 2 at n = 8 for
// K ∈ {1, 2, 4}, falls back to the complement at K = 8 (no w bits left
// to relabel) and keeps full shards at K = 16; MaxCut and SK take the
// complement; LABS + Z₀ takes its one pivot 1010…10 at even n; xy
// mixers and a cost whose group is {0} keep full shards.
func TestHalfShardRule(t *testing.T) {
	const n = 8
	ctx := context.Background()
	reg := registry.New(registry.Options{})
	probs := halfProblems(t, n)
	labs := probs[0].terms
	flip := func(n int) []uint64 { return []uint64{1<<uint(n) - 1} }
	cases := []struct {
		name   string
		n      int
		terms  poly.Terms
		opts   Options
		pivots []uint64
	}{
		{"labs K=1", n, labs, Options{Ranks: 1}, labsPivots(n)},
		{"labs K=2", n, labs, Options{Ranks: 2}, labsPivots(n)},
		{"labs K=4", n, labs, Options{Ranks: 4, Algo: cluster.Pairwise}, labsPivots(n)},
		{"labs K=8 (complement)", n, labs, Options{Ranks: 8}, flip(n)},
		{"labs K=16 (2k > n−2)", n, labs, Options{Ranks: 16}, nil},
		{"labs n=2 K=1", 2, problems.LABSTerms(2), Options{Ranks: 1}, flip(2)},
		{"labs n=3 K=1", 3, problems.LABSTerms(3), Options{Ranks: 1}, []uint64{0b101}},
		{"labs n=3 K=2", 3, problems.LABSTerms(3), Options{Ranks: 2}, nil},
		{"maxcut float32", n, probs[1].terms, Options{Ranks: 4, Precision: PrecisionFloat32}, flip(n)},
		{"sk pairwise", n, probs[2].terms, Options{Ranks: 2, Algo: cluster.Pairwise}, flip(n)},
		{"labs+z0", n, oddCost(n), Options{Ranks: 4}, []uint64{0b10101010}},
		{"labs+z0 n=9", 9, oddCost(9), Options{Ranks: 2}, nil},
		{"labs+z0+z1", n, fixedCost(n), Options{Ranks: 1}, nil},
		{"labs xy-ring", n, labs, Options{Ranks: 4, Mixer: core.MixerXYRing}, nil},
		{"labs xy-complete", n, labs, Options{Ranks: 2, Mixer: core.MixerXYComplete}, nil},
	}
	for _, tc := range cases {
		eng, err := NewGradEngine(tc.n, tc.terms, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		f, err := NewFactoryFromSource(tc.n, tc.terms, tc.opts, leaseTerms(tc.n, tc.terms))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		built, err := f.NewGradEngine(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		key, err := reg.Register(registry.Spec{N: tc.n, Terms: tc.terms, Mixer: tc.opts.Mixer})
		if err != nil {
			t.Fatal(err)
		}
		rf, err := NewFactoryFromSource(tc.n, tc.terms, tc.opts, registrySource(reg, key))
		if err != nil {
			t.Fatal(err)
		}
		fromEntry, err := rf.NewGradEngine(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := costvec.Group(tc.pivots)
		wantLocal := tc.n - len(tc.pivots) - eng.k
		for _, e := range []*GradEngine{eng, built, fromEntry} {
			if !slices.Equal(e.eng.Config().Sym.Group, want) || bits.TrailingZeros(uint(e.eng.Len())) != wantLocal {
				t.Errorf("%s: group %b with %d local qubits, want %b with %d", tc.name, e.eng.Config().Sym.Group, bits.TrailingZeros(uint(e.eng.Len())), want, wantLocal)
			}
		}
		for _, fe := range []struct {
			f *Factory
			e *GradEngine
		}{{f, built}, {rf, fromEntry}} {
			if fc, ec := fe.f.Caps(), fe.e.Caps(); fc != ec {
				t.Errorf("%s: factory Caps %+v, build Caps %+v", tc.name, fc, ec)
			}
			if err := fe.f.Retire(fe.e); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestHalfShardTraffic pins the wire contract of group shards on LABS:
// per rank, exactly 2^−h of the bytes of the full-shard Algorithm 4
// closed form (h = 2 at K ∈ {2, 4}, the complement's h = 1 at K = 8),
// at the message and sync counts of full shards (LABS + Z₀ + Z₁ at the
// same n, K and p), for both all-to-all algorithms; and a gradient
// still moves 3× the forward bytes and messages.
func TestHalfShardTraffic(t *testing.T) {
	const n, p = 8, 3
	ctx := context.Background()
	rng := rand.New(rand.NewSource(81))
	gamma, beta := randomAngles(rng, p)
	labs := problems.LABSTerms(n)
	for _, algo := range []cluster.AlltoallAlgo{cluster.Transpose, cluster.Pairwise} {
		for _, c := range []struct{ ranks, h int }{{2, 2}, {4, 2}, {8, 1}} {
			opts := Options{Ranks: c.ranks, Algo: algo}
			k, err := opts.validate(n)
			if err != nil {
				t.Fatal(err)
			}
			sub := int64(1<<uint(n-k)) / int64(c.ranks)
			fullForward := int64(2*p) * int64(c.ranks-1) * sub * 16
			group, err := SimulateQAOA(ctx, n, labs, gamma, beta, opts)
			if err != nil {
				t.Fatal(err)
			}
			full, err := SimulateQAOA(ctx, n, fixedCost(n), gamma, beta, opts)
			if err != nil {
				t.Fatal(err)
			}
			groupGrad, err := simulateGrad(ctx, n, labs, gamma, beta, opts)
			if err != nil {
				t.Fatal(err)
			}
			fullGrad, err := simulateGrad(ctx, n, fixedCost(n), gamma, beta, opts)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < c.ranks; r++ {
				g, f := group.PerRank[r], full.PerRank[r]
				if g.BytesSent<<uint(c.h) != fullForward || f.BytesSent != fullForward {
					t.Errorf("%v K=%d rank %d: forward sent %d B (full shards %d B), want %d = 2^−%d of %d",
						algo, c.ranks, r, g.BytesSent, f.BytesSent, fullForward>>uint(c.h), c.h, fullForward)
				}
				if g.Messages != f.Messages || g.Syncs != f.Syncs {
					t.Errorf("%v K=%d rank %d: forward %d msgs / %d syncs, full shards %d / %d",
						algo, c.ranks, r, g.Messages, g.Syncs, f.Messages, f.Syncs)
				}
				gg, fg := groupGrad.PerRank[r], fullGrad.PerRank[r]
				if gg.BytesSent != 3*g.BytesSent || gg.Messages != 3*g.Messages {
					t.Errorf("%v K=%d rank %d: gradient moved %d B in %d msgs, want 3× forward (%d B, %d msgs)",
						algo, c.ranks, r, gg.BytesSent, gg.Messages, 3*g.BytesSent, 3*g.Messages)
				}
				if gg.BytesSent<<uint(c.h) != fg.BytesSent || gg.Messages != fg.Messages || gg.Syncs != fg.Syncs {
					t.Errorf("%v K=%d rank %d: gradient (%d B, %d msgs, %d syncs), full shards (%d B, %d, %d)",
						algo, c.ranks, r, gg.BytesSent, gg.Messages, gg.Syncs, fg.BytesSent, fg.Messages, fg.Syncs)
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
// the n-qubit distribution probs over 10·2^h bins: ten runs of
// probability-ranked states of about equal mass, each split by the top
// h bits, so a draw that never (or always) takes some member of its
// stored amplitude's orbit fails. A sample with zero reference
// probability returns +Inf.
func halfChiSquared(probs []float64, samples []uint64, h int) float64 {
	const runs = 10
	n := bits.Len(uint(len(probs))) - 1
	order := make([]int, len(probs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return probs[order[a]] > probs[order[b]] })
	binOf := make([]int, len(probs))
	b, acc := 0, 0.0
	for _, x := range order {
		binOf[x] = b<<uint(h) + x>>uint(n-h)
		acc += probs[x]
		if acc > float64(b+1)/runs && b < runs-1 {
			b++
		}
	}
	want := make([]float64, runs<<uint(h))
	for x, p := range probs {
		want[binOf[x]] += p * float64(len(samples))
	}
	got := make([]float64, runs<<uint(h))
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

// chi2Bound is the χ² critical value at p = 1e-5 for the 10·2^h − 1
// degrees of freedom of halfChiSquared at h = 1 and 2.
var chi2Bound = map[int]float64{1: 57.373, 2: 88.604}

// TestHalfShardGradAndOutputsMatchSingleNode is the group-shard
// differential: LABS, MaxCut and SK × K ∈ {1, 2, 4, 8} × p ∈ {1, 4, 12}
// on group shards (LABS's h = 2 up to K = 4, the complement otherwise)
// against the single-node Serial engine, which keeps the full state:
// its energy and gradient, and brute-force outputs over its 2^n
// probabilities (bruteOutputs). Energy, gradient, Overlap, MinCost,
// CVaR, Variance, MaxProb and ProbIndices in every block of the top
// bits agree to rtol 1e-10 in float64 and within the SoA32 band (2e-3)
// in float32; MaxProbIndex attains the maximum and is the lowest index
// of its orbit, a stored index below 2^(n−h); the shots pass a χ² test
// against the full distribution over bins split by the top h bits
// (df = 10·2^h − 1, p = 1e-5) and stream exactly as they buffer; Gather
// returns all 2^n amplitudes. Results on slices held as codes alone,
// shots included, equal float64 ones bit for bit (SK on its weights
// rounded to the 1/16 step, an exact grid).
func TestHalfShardGradAndOutputsMatchSingleNode(t *testing.T) {
	const n, rtol, band, shots = 8, 1e-10, 2e-3, 10_000
	ctx := context.Background()
	rng := rand.New(rand.NewSource(83))
	queries := []uint64{0, 5, 1<<(n-2) + 3, 1<<(n-1) - 1, 1 << (n - 1), 3<<(n-2) + 9, 1<<n - 6, 1<<n - 1}
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
				if eng.pivots() == 0 {
					t.Fatalf("%s K=%d %+v: runs full shards", prob.name, ranks, opts)
				}
				return eng
			}
			f64 := engine(prob.terms, Options{Ranks: ranks})
			f32 := engine(prob.terms, Options{Ranks: ranks, Precision: PrecisionFloat32})
			grid := engine(prob.grid, Options{Ranks: ranks})
			quant := formEngine(t, n, prob.grid, Options{Ranks: ranks}, codesOnly)
			if quant.pivots() == 0 {
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
					// The members of an orbit tie exactly; the lowest, the
					// stored index, wins.
					h := c.eng.pivots()
					if out.MaxProbIndex >= 1<<uint(n-h) {
						t.Errorf("%s %s: MaxProbIndex %d is not the lowest of its orbit (h = %d)", where, c.name, out.MaxProbIndex, h)
					}
					if chi2 := halfChiSquared(probs, out.Samples, h); chi2 > chi2Bound[h] {
						t.Errorf("%s %s: χ² = %v over %d bins exceeds %v (p < 1e-5)", where, c.name, chi2, 10<<uint(h), chi2Bound[h])
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

// TestHalfShardResumeBitIdentical is the group-shard durability check:
// a run killed mid-collective leaves a snapshot of the full state, as
// full shards write it (every member of each orbit holds the stored
// amplitude), and resumes from it bit-identical to an uninterrupted
// run, in every shard representation: quarter shards (LABS n = 8 at
// K ∈ {1, 4}, float64 and float32) and half shards (LABS at K = 8,
// codedProblem on slices held as codes alone). A snapshot written by
// each other shard form that fits the ranks — full shards (orbit
// members rounded independently), half shards and, for LABS, quarter
// shards — resumes within rounding of the uninterrupted run.
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
		eng, err := NewGradEngine(n, terms, opts)
		if err != nil {
			t.Fatal(err)
		}
		group := eng.eng.Config().Sym.Group
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
		// member of each orbit holds its stored amplitude, with unit norm.
		amp := func(x uint64) complex128 {
			size := uint64(1<<n) / uint64(opts.Ranks)
			if snap.Precision == PrecisionFloat32 {
				return complex(float64(snap.Re[x/size][x%size]), float64(snap.Im[x/size][x%size]))
			}
			return snap.Shards[x/size][x%size]
		}
		var norm float64
		for x := uint64(0); x < 1<<n; x++ {
			a := amp(x)
			norm += real(a)*real(a) + imag(a)*imag(a)
			for _, g := range group {
				if a != amp(x^g) {
					t.Fatalf("%s: snapshot amplitude %d is %v, its orbit member %d %v", name, x, a, x^g, amp(x^g))
				}
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

		// Snapshots after two layers from the other shard forms.
		const layer = 2
		k := eng.k
		writers := [][]uint64{nil}
		if holds([]uint64{1<<uint(n) - 1}, n, k) {
			writers = append(writers, []uint64{1<<uint(n) - 1})
		}
		if holds(labsPivots(n), n, k) && c.name == "labs" {
			writers = append(writers, labsPivots(n))
		}
		for _, pivots := range writers {
			w := engineOver(t, n, terms, opts, pivots)
			if slices.Equal(w.eng.Config().Sym.Group, group) {
				continue
			}
			if err := w.eval(ctx, &run{gamma: gamma[:layer], beta: beta[:layer]}); err != nil {
				t.Fatal(err)
			}
			fs := &ShardSnapshot{
				N: n, Ranks: opts.Ranks, Mixer: core.MixerX, HammingWeight: n / 2,
				Precision: opts.Precision,
				Layer:     layer, GammaPrefix: gamma[:layer], BetaPrefix: beta[:layer],
			}
			localSize := (1 << n) / opts.Ranks
			for r := 0; r < opts.Ranks; r++ {
				if opts.Precision == PrecisionFloat32 {
					fs.Re = append(fs.Re, make([]float32, localSize))
					fs.Im = append(fs.Im, make([]float32, localSize))
				} else {
					fs.Shards = append(fs.Shards, make(statevec.Vec, localSize))
				}
			}
			for _, rs := range w.lease.ranks {
				w.store(rs.Shard, fs)
			}
			if err := SaveShardSnapshot(path, fs); err != nil {
				t.Fatal(err)
			}
			res, err = SimulateQAOACheckpointed(ctx, n, terms, gamma, beta, opts, ck)
			if err != nil {
				t.Fatalf("%s: resume from a snapshot of group %b failed: %v", name, w.eng.Config().Sym.Group, err)
			}
			tol := 1e-12
			if opts.Precision == PrecisionFloat32 {
				tol = 1e-5
			}
			if d := math.Abs(res.Expectation - base.Expectation); d > tol*math.Max(math.Abs(base.Expectation), 1) {
				t.Errorf("%s: resumed from a snapshot of group %b at energy %v, uninterrupted %v", name, w.eng.Config().Sym.Group, res.Expectation, base.Expectation)
			}
			if d := math.Abs(res.Overlap - base.Overlap); d > tol {
				t.Errorf("%s: resumed from a snapshot of group %b at overlap %v, uninterrupted %v", name, w.eng.Config().Sym.Group, res.Overlap, base.Overlap)
			}
		}
	}
}
