package distsim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"qokit/internal/cluster"
	"qokit/internal/core"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

func TestDistributedMatchesSingleNode(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n := 8
	g, err := graphs.RandomRegular(n, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range []string{"maxcut", "labs"} {
		ts := problems.MaxCutTerms(g)
		if problem == "labs" {
			ts = problems.LABSTerms(n)
		}
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
		refState := ref.StateVector()

		for _, algo := range []cluster.AlltoallAlgo{cluster.Pairwise, cluster.Transpose} {
			for _, k := range []int{1, 2, 4, 8, 16} {
				res, err := SimulateQAOA(context.Background(), n, ts, gamma, beta, Options{Ranks: k, Algo: algo, Gather: true})
				if err != nil {
					t.Fatalf("%s %v K=%d: %v", problem, algo, k, err)
				}
				if d := statevec.MaxAbsDiff(res.State, refState); d > 1e-11 {
					t.Errorf("%s %v K=%d: state differs by %g", problem, algo, k, d)
				}
				if math.Abs(res.Expectation-ref.Expectation()) > 1e-9 {
					t.Errorf("%s %v K=%d: expectation %v, want %v", problem, algo, k, res.Expectation, ref.Expectation())
				}
				if math.Abs(res.Overlap-ref.Overlap()) > 1e-9 {
					t.Errorf("%s %v K=%d: overlap %v, want %v", problem, algo, k, res.Overlap, ref.Overlap())
				}
				if math.Abs(res.MinCost-single.MinCost()) > 1e-9 {
					t.Errorf("%s %v K=%d: min cost %v, want %v", problem, algo, k, res.MinCost, single.MinCost())
				}
			}
		}
	}
}

func TestCommunicationOnlyForGlobalQubits(t *testing.T) {
	// K=1 must perform zero communication; K>1 exactly 2 all-to-alls
	// per layer (Algorithm 4), visible through the byte counters. The
	// odd-degree cost keeps full shards (TestHalfShardTraffic pins the
	// halved volume of half shards).
	n, p := 8, 2
	ts := oddCost(n)
	gamma := []float64{0.3, 0.5}
	beta := []float64{0.4, 0.1}
	res1, err := SimulateQAOA(context.Background(), n, ts, gamma[:p], beta[:p], Options{Ranks: 1, Algo: cluster.Transpose})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Comm.BytesSent != 0 {
		t.Errorf("K=1 sent %d bytes", res1.Comm.BytesSent)
	}
	res4, err := SimulateQAOA(context.Background(), n, ts, gamma[:p], beta[:p], Options{Ranks: 4, Algo: cluster.Transpose})
	if err != nil {
		t.Fatal(err)
	}
	// Per layer each rank sends (K−1)/K of its slice twice; 2 layers.
	slice := (1 << 8) / 4
	wantPerRank := int64(2 * p * (slice / 4 * 3) * 16)
	for r, ctr := range res4.PerRank {
		if ctr.BytesSent != wantPerRank {
			t.Errorf("rank %d sent %d bytes, want %d", r, ctr.BytesSent, wantPerRank)
		}
	}
}

func TestValidation(t *testing.T) {
	ts := problems.LABSTerms(4)
	if _, err := SimulateQAOA(context.Background(), 4, ts, []float64{1}, []float64{1}, Options{Ranks: 3}); err == nil {
		t.Error("non-power-of-two ranks accepted")
	}
	if _, err := SimulateQAOA(context.Background(), 4, ts, []float64{1}, []float64{1}, Options{Ranks: 8}); err == nil {
		t.Error("2k > n accepted")
	}
	if _, err := SimulateQAOA(context.Background(), 4, ts, []float64{1}, []float64{1, 2}, Options{Ranks: 2}); err == nil {
		t.Error("mismatched angles accepted")
	}
	if _, err := SimulateQAOA(context.Background(), 4, ts, []float64{1}, []float64{1}, Options{Ranks: 2, Mixer: core.Mixer(42)}); err == nil {
		t.Error("unknown mixer accepted by distributed simulator")
	}
	if _, err := SimulateQAOA(context.Background(), 4, ts, nil, nil, Options{Ranks: 0}); err == nil {
		t.Error("zero ranks accepted")
	}
}

// TestDistributedXYMatchesSingleNode verifies the xy-mixer extension
// of the forward pipeline: sharded evolution with per-edge partner
// exchanges reproduces the single-node xy simulators — state,
// expectation, feasible-subspace overlap, and restricted minimum.
func TestDistributedXYMatchesSingleNode(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	n, p := 8, 3
	g, err := graphs.RandomRegular(n, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := problems.MaxCutTerms(g)
	gamma := make([]float64, p)
	beta := make([]float64, p)
	for i := range gamma {
		gamma[i] = rng.Float64() - 0.5
		beta[i] = rng.Float64() - 0.5
	}
	for _, mixer := range []core.Mixer{core.MixerXYRing, core.MixerXYComplete} {
		single, err := core.New(n, ts, core.Options{Backend: core.BackendSerial, Mixer: mixer})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := single.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		refState := ref.StateVector()
		for _, k := range []int{1, 2, 4, 8, 16} {
			res, err := SimulateQAOA(context.Background(), n, ts, gamma, beta, Options{Ranks: k, Algo: cluster.Transpose, Mixer: mixer, Gather: true})
			if err != nil {
				t.Fatalf("%v K=%d: %v", mixer, k, err)
			}
			if d := statevec.MaxAbsDiff(res.State, refState); d > 1e-11 {
				t.Errorf("%v K=%d: state differs by %g", mixer, k, d)
			}
			if math.Abs(res.Expectation-ref.Expectation()) > 1e-9 {
				t.Errorf("%v K=%d: expectation %v, want %v", mixer, k, res.Expectation, ref.Expectation())
			}
			if math.Abs(res.Overlap-ref.Overlap()) > 1e-9 {
				t.Errorf("%v K=%d: overlap %v, want %v", mixer, k, res.Overlap, ref.Overlap())
			}
			if math.Abs(res.MinCost-single.MinCost()) > 1e-9 {
				t.Errorf("%v K=%d: min cost %v, want %v", mixer, k, res.MinCost, single.MinCost())
			}
		}
	}
	// A non-default Hamming weight must track the single-node option.
	single, err := core.New(n, ts, core.Options{Backend: core.BackendSerial, Mixer: core.MixerXYRing, HammingWeight: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateQAOA(context.Background(), n, ts, gamma, beta, Options{Ranks: 4, Mixer: core.MixerXYRing, HammingWeight: 3, Gather: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := statevec.MaxAbsDiff(res.State, ref.StateVector()); d > 1e-11 {
		t.Errorf("HammingWeight=3: state differs by %g", d)
	}
	if math.Abs(res.Overlap-ref.Overlap()) > 1e-9 {
		t.Errorf("HammingWeight=3: overlap %v, want %v", res.Overlap, ref.Overlap())
	}
}

func TestMixerOnlyMatchesSingleNode(t *testing.T) {
	n, beta := 6, 0.45
	full := statevec.NewUniform(n)
	rng := rand.New(rand.NewSource(62))
	for i := range full {
		full[i] *= complex(rng.NormFloat64(), rng.NormFloat64())
	}
	full.Normalize()
	want := full.Clone()
	statevec.ApplyUniformRX(want, beta)

	for _, k := range []int{2, 4, 8} {
		slices := make([]*statevec.SoA, k)
		sliceLen := len(full) / k
		for r := 0; r < k; r++ {
			slices[r] = statevec.SoAFromVec(full[r*sliceLen : (r+1)*sliceLen])
		}
		ctr, err := MixerOnly(n, k, cluster.Transpose, slices, beta)
		if err != nil {
			t.Fatal(err)
		}
		if ctr.BytesSent == 0 {
			t.Errorf("K=%d: no traffic recorded", k)
		}
		got := make(statevec.Vec, 0, len(full))
		for _, s := range slices {
			got = append(got, s.ToVec()...)
		}
		if d := statevec.MaxAbsDiff(got, want); d > 1e-11 {
			t.Errorf("K=%d: distributed mixer differs by %g", k, d)
		}
	}
}

func TestMixerOnlyValidation(t *testing.T) {
	if _, err := MixerOnly(4, 2, cluster.Transpose, make([]*statevec.SoA, 3), 0.1); err == nil {
		t.Error("wrong slice count accepted")
	}
	if _, err := MixerOnly(4, 16, cluster.Transpose, make([]*statevec.SoA, 16), 0.1); err == nil {
		t.Error("2k > n accepted")
	}
	if _, err := MixerOnly(4, 2, cluster.Transpose, []*statevec.SoA{statevec.NewSoA(2), statevec.NewSoA(3)}, 0.1); err == nil {
		t.Error("wrong slice length accepted")
	}
}

func TestGatherFalseOmitsState(t *testing.T) {
	res, err := SimulateQAOA(context.Background(), 6, problems.LABSTerms(6), []float64{0.3}, []float64{0.4},
		Options{Ranks: 2, Algo: cluster.Transpose, Gather: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != nil {
		t.Error("State returned despite Gather=false (the memory-saving mode)")
	}
	if res.Expectation == 0 && res.Overlap == 0 {
		t.Error("outputs missing without gather")
	}
}

func TestDistributedPrecomputeMatchesDiag(t *testing.T) {
	// The gathered result with p=0 must be the initial uniform state,
	// and expectation must equal the true mean cost.
	n := 6
	ts := problems.LABSTerms(n)
	res, err := SimulateQAOA(context.Background(), n, ts, nil, nil, Options{Ranks: 4, Algo: cluster.Pairwise, Gather: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := statevec.MaxAbsDiff(res.State, statevec.NewUniform(n)); d > 1e-12 {
		t.Errorf("p=0 distributed state differs from uniform: %g", d)
	}
	var mean float64
	for x := uint64(0); x < 1<<uint(n); x++ {
		mean += float64(problems.LABSEnergy(x, n))
	}
	mean /= float64(int(1) << uint(n))
	if math.Abs(res.Expectation-mean) > 1e-9 {
		t.Errorf("uniform-state expectation %v, want mean cost %v", res.Expectation, mean)
	}
}

// TestXYHalfSliceTraffic pins the half-slice optimization's wire
// volume: a half-remote xy edge (one local, one global qubit) moves
// exactly half a local slice per rank — the selected entries — where
// the pre-optimization exchange moved the full slice; fully-global
// edges still move full slices only on their two active ranks. The
// expected bytes are computed from the edge categories, and the halved
// total is asserted to be exactly half the old full-slice formula for
// a ring whose global-touching edges are all half-remote.
func TestXYHalfSliceTraffic(t *testing.T) {
	const n = 8
	ts := problems.MaxCutTerms(mustRing(t, n))
	gamma := []float64{0.3}
	beta := []float64{0.4}

	// K=2 (k=1): ring edges touching global qubit 7 are (6,7) and
	// (0,7), both half-remote. Per rank per layer: 2 × (2^7)/2 × 16 B.
	res2, err := SimulateQAOA(context.Background(), n, ts, gamma, beta,
		Options{Ranks: 2, Algo: cluster.Transpose, Mixer: core.MixerXYRing})
	if err != nil {
		t.Fatal(err)
	}
	localSize := 1 << (n - 1)
	wantHalf := int64(2 * (localSize / 2) * 16)
	oldFull := int64(2 * localSize * 16)
	for r, ctr := range res2.PerRank {
		if ctr.BytesSent != wantHalf {
			t.Errorf("K=2 rank %d sent %d bytes, want %d (half-slice)", r, ctr.BytesSent, wantHalf)
		}
	}
	if 2*res2.PerRank[0].BytesSent != oldFull {
		t.Errorf("half-slice volume %d is not half the full-slice %d", res2.PerRank[0].BytesSent, oldFull)
	}

	// K=4 (k=2): (5,6) and (0,7) are half-remote on every rank; (6,7)
	// is fully global — only the two ranks whose bits differ exchange,
	// and they need the full slice.
	res4, err := SimulateQAOA(context.Background(), n, ts, gamma, beta,
		Options{Ranks: 4, Algo: cluster.Transpose, Mixer: core.MixerXYRing})
	if err != nil {
		t.Fatal(err)
	}
	local4 := 1 << (n - 2)
	half := int64(local4 / 2 * 16)
	full := int64(local4 * 16)
	want := []int64{2 * half, 2*half + full, 2*half + full, 2 * half}
	for r, ctr := range res4.PerRank {
		if ctr.BytesSent != want[r] {
			t.Errorf("K=4 rank %d sent %d bytes, want %d", r, ctr.BytesSent, want[r])
		}
	}
}

// oddCost is LABS plus one Z₀ field: the odd-degree term breaks the
// flip symmetry, so every engine keeps full shards on it. (Single-node
// simulators still store it over one pivot at even n, whose symmetry
// group keeps LABS's flip of the odd positions; see fixedCost.)
func oddCost(n int) poly.Terms {
	return problems.LABSTerms(n).Plus(poly.New(poly.NewTerm(1, 0)))
}

// fixedCost is LABS plus Z₀ and Z₁ fields, whose symmetry group is {0}:
// every engine keeps the full state on it at any n.
func fixedCost(n int) poly.Terms {
	return oddCost(n).Plus(poly.New(poly.NewTerm(1, 1)))
}

func mustRing(t *testing.T, n int) graphs.Graph {
	t.Helper()
	g := graphs.Graph{N: n}
	for i := 0; i < n; i++ {
		g.Edges = append(g.Edges, graphs.Edge{U: i, V: (i + 1) % n})
	}
	return g
}

// shardState returns the ψ planes of every rank of eng's one lease, in
// rank order, as one full state: after a forward evaluation they hold
// the evolved state.
func shardState[T statevec.Float](t *testing.T, eng *GradEngine) planes[T] {
	t.Helper()
	if len(eng.all) != 1 {
		t.Fatalf("engine holds %d leases, want 1", len(eng.all))
	}
	var full planes[T]
	for _, ev := range eng.all[0].shards {
		sh := ev.(*shard[T])
		full.re = append(full.re, sh.psi.re...)
		full.im = append(full.im, sh.psi.im...)
	}
	return full
}

// TestShardStatesMatchSingleNodeBitwise pins what running the
// single-node kernels on the shards gives, for both shard forms. Full
// shards (LABS plus Z₀ and Z₁ fields, symmetry group {0}, n ∈ {8, 10}):
// with n − k and k even, every amplitude sees the same phase factor and
// the same ascending RX⊗RX pair blocks as the single-node tiled layer,
// so the gathered forward state equals the single-node SoA (SoA32)
// full state bit for bit; the single-node simulator keeps the full
// state through an explicit uniform InitialState. Half shards (SK,
// whose group is the complement alone, n ∈ {9, 11}): with n − 1 − k
// and k even, every representative also sees the same mirror pair
// update, so the gathered shards equal the single-node half state.
// MaxCut on the n = 11 ring runs half shards whose slices are held as
// uint16 codes alone, and matches the same way. (Single-node LABS
// stores a quarter state, which half shards do not.)
func TestShardStatesMatchSingleNodeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	ringMaxCut := func(n int) poly.Terms { return problems.MaxCutTerms(mustRing(t, n)) }
	sk := func(n int) poly.Terms { return problems.SKTerms(n, int64(n)) }
	for _, form := range []struct {
		half, coded bool
		ns          []int
		terms       func(n int) poly.Terms
	}{
		{false, false, []int{8, 10}, fixedCost},
		{true, false, []int{9, 11}, sk},
		{true, true, []int{11}, ringMaxCut},
	} {
		for _, n := range form.ns {
			terms := form.terms(n)
			stored := 1 << uint(n)
			var initial statevec.Vec
			if form.half {
				stored /= 2
			} else {
				initial = statevec.NewUniform(n)
			}
			for _, p := range []int{1, 4, 12} {
				gamma, beta := randomAngles(rng, p)
				x := append(append([]float64(nil), gamma...), beta...)
				for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
					single, err := core.New(n, terms, core.Options{
						Backend: core.BackendSoA, SinglePrecision: prec == PrecisionFloat32,
						InitialState: initial, Workers: 2,
					})
					if err != nil {
						t.Fatal(err)
					}
					ref, err := single.SimulateQAOA(gamma, beta)
					if err != nil {
						t.Fatal(err)
					}
					want := ref.StateVector()[:stored]
					for _, ranks := range []int{1, 4} {
						eng, err := NewGradEngine(n, terms, Options{Ranks: ranks, Precision: prec})
						if err != nil {
							t.Fatal(err)
						}
						if eng.half != form.half || coded(eng) != form.coded {
							t.Fatalf("n=%d K=%d: half=%v, codes alone %v; want %v, %v", n, ranks, eng.half, coded(eng), form.half, form.coded)
						}
						if _, err := eng.Energy(context.Background(), x); err != nil {
							t.Fatal(err)
						}
						var got statevec.Vec
						if prec == PrecisionFloat32 {
							got = shardState[float32](t, eng).vec()
						} else {
							got = shardState[float64](t, eng).vec()
						}
						if len(got) != len(want) {
							t.Fatalf("n=%d K=%d: shards hold %d amplitudes, want %d", n, ranks, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Errorf("n=%d p=%d %v K=%d: amplitude %d is %v, single-node %v", n, p, prec, ranks, i, got[i], want[i])
								break
							}
						}
					}
				}
			}
		}
	}
}
