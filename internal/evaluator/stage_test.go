package evaluator

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"qokit/internal/cluster"
)

// slab is a test state over a run of stored indices: probabilities and
// costs by local index.
type slab struct{ p, c []float64 }

func (s slab) Prob(i int) float64 { return s.p[i] }

func (s slab) Cost(i int) float64 { return s.c[i] }

func (s slab) Ascending() []int {
	order := make([]int, len(s.c))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return s.c[order[a]] < s.c[order[b]] })
	return order
}

// splitView cuts a one-rank view into k contiguous rank views.
func splitView(v View, k int) []View {
	s := v.Amplitudes.(slab)
	size := v.Len / k
	views := make([]View, k)
	for r := range views {
		lo, hi := r*size, (r+1)*size
		views[r] = v
		views[r].Amplitudes = slab{s.p[lo:hi], s.c[lo:hi]}
		views[r].Offset, views[r].Len = uint64(lo), size
	}
	return views
}

// stageViews returns one-rank views of an 8-qubit state with integer
// costs (so CVaR thresholds fall on ties): a full state, a half state
// stored over {0, 2^n−1}, an xy-style state restricted to Hamming
// weight 4, and a full state whose costs rise with the index, so each
// rank holds a cost range of its own.
func stageViews() map[string]View {
	const n = 8
	rng := rand.New(rand.NewSource(5))
	random := func(int) float64 { return float64(rng.Intn(9) - 4) }
	state := func(size int, weight float64, keep func(x int) bool, cost func(x int) float64) slab {
		s := slab{p: make([]float64, size), c: make([]float64, size)}
		var total float64
		for x := range s.p {
			s.c[x] = cost(x)
			if keep(x) {
				s.p[x] = rng.Float64()
				total += s.p[x]
			}
		}
		for x := range s.p {
			s.p[x] /= weight * total
		}
		return s
	}
	all := func(int) bool { return true }
	return map[string]View{
		"full": {Amplitudes: state(1<<n, 1, all, random), N: n, Len: 1 << n, Group: []uint64{0}},
		"half": {Amplitudes: state(1<<(n-1), 2, all, random), N: n, Len: 1 << (n - 1), Group: []uint64{0, 1<<n - 1}},
		"xy": {
			Amplitudes: state(1<<n, 1, func(x int) bool { return bits.OnesCount(uint(x)) == 4 }, random),
			N:          n, Len: 1 << n, Group: []uint64{0}, Restrict: true, HammingWeight: 4,
		},
		"rising": {
			Amplitudes: state(1<<n, 1, all, func(x int) float64 { return float64(x>>3 - 16) }),
			N:          n, Len: 1 << n, Group: []uint64{0},
		},
	}
}

// runStage runs one EvalOutputs stage and one StreamSamples stage over
// views, on OneRank for a nil group and on every rank of g otherwise.
func runStage(t *testing.T, g *cluster.Group, views []View, spec OutputSpec) (*Outputs, []uint64) {
	t.Helper()
	ctx := context.Background()
	out := &Outputs{}
	st, err := NewStage(views[0].N, spec, out)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []uint64
	stream, err := NewStream(views[0].N, spec, func(chunk []uint64) error {
		streamed = append(streamed, chunk...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Stage{st, stream} {
		if g == nil {
			err = s.Run(ctx, OneRank{}, views[0])
		} else {
			err = g.Run(func(c *cluster.Comm) error { return s.Run(ctx, c, views[c.Rank()]) })
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return out, streamed
}

// TestStageOutputsSplitOverRanks: the output stage over one view split
// across a K-rank cluster.Group agrees with the same view on OneRank at
// K ∈ {1, 2, 4}, on full, half, restricted and rising-cost states (the
// last gives each rank a cost range of its own): the minimum
// cost, the most probable state and the probability queries exactly,
// the overlap, CVaR and variance to rtol 1e-12 (the ranks sum in
// another order), and at K = 1 the shots too. At every K the stream
// equals the buffered shots, and every shot has positive probability.
func TestStageOutputsSplitOverRanks(t *testing.T) {
	spec := OutputSpec{
		CVaRAlphas: []float64{1, 0.5, 0.1, 0.01}, Variance: true,
		ProbIndices: []uint64{0, 3, 200, 255}, Shots: SampleChunkSize + 904, Seed: 7,
	}
	for name, v := range stageViews() {
		want, _ := runStage(t, nil, []View{v}, spec)
		// The probability of basis state x, from the one-rank view.
		prob := func(x uint64) float64 {
			i, _ := v.local(x)
			return v.Prob(i)
		}
		for _, k := range []int{1, 2, 4} {
			where := fmt.Sprintf("%s K=%d", name, k)
			g, err := cluster.NewGroup(k, cluster.Transpose)
			if err != nil {
				t.Fatal(err)
			}
			got, streamed := runStage(t, g, splitView(v, k), spec)
			if got.MinCost != want.MinCost || got.MaxProb != want.MaxProb || got.MaxProbIndex != want.MaxProbIndex {
				t.Errorf("%s: min cost %v, max prob %v at %d; one rank %v, %v at %d", where,
					got.MinCost, got.MaxProb, got.MaxProbIndex, want.MinCost, want.MaxProb, want.MaxProbIndex)
			}
			for i := range want.Probs {
				if got.Probs[i] != want.Probs[i] {
					t.Errorf("%s: prob[%d] = %v, one rank %v", where, spec.ProbIndices[i], got.Probs[i], want.Probs[i])
				}
			}
			near := func(what string, a, b float64) {
				if d := math.Abs(a - b); d > 1e-12*math.Max(math.Abs(b), 1) {
					t.Errorf("%s: %s = %v, one rank %v", where, what, a, b)
				}
			}
			near("overlap", got.Overlap, want.Overlap)
			near("variance", got.Variance, want.Variance)
			for i, a := range spec.CVaRAlphas {
				near(fmt.Sprintf("CVaR(%v)", a), got.CVaR[i], want.CVaR[i])
			}
			for i, x := range got.Samples {
				if k == 1 && x != want.Samples[i] {
					t.Fatalf("%s: shot %d = %d, one rank %d", where, i, x, want.Samples[i])
				}
				if x>>uint(v.N) != 0 || prob(x) == 0 {
					t.Fatalf("%s: shot %d drew basis state %d of zero probability", where, i, x)
				}
				if streamed[i] != x {
					t.Fatalf("%s: streamed shot %d = %d, buffered %d", where, i, streamed[i], x)
				}
			}
			if len(streamed) != spec.Shots || len(got.Samples) != spec.Shots {
				t.Errorf("%s: %d buffered and %d streamed shots, want %d", where, len(got.Samples), len(streamed), spec.Shots)
			}
		}
	}
}
