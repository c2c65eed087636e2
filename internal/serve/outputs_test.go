package serve

import (
	"context"
	"strings"
	"sync"
	"testing"

	"qokit/internal/core"
	"qokit/internal/distsim"
	"qokit/internal/evaluator"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
)

// TestServiceOutputsMatchEngine: EvalOutputs through the queue
// reproduces the direct engine call (same engine, same seed, same
// sampler stream), concurrently from many submitters.
func TestServiceOutputsMatchEngine(t *testing.T) {
	n := 7
	sim, err := core.New(n, problems.LABSTerms(n), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewWorkspace()
	s, err := New(workspaces(sim, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Caps().Outputs {
		t.Fatal("single-node pool should advertise outputs")
	}
	x := []float64{0.3, -0.2, 0.4, 0.1}
	spec := evaluator.OutputSpec{CVaRAlphas: []float64{1, 0.1}, Shots: 50, Seed: 9, ProbIndices: []uint64{0, 42}}
	want, err := eng.EvalOutputs(context.Background(), x, spec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.EvalOutputs(context.Background(), x, spec)
			if err != nil {
				t.Error(err)
				return
			}
			if got.Energy != want.Energy || got.Overlap != want.Overlap ||
				got.CVaR[1] != want.CVaR[1] || got.Probs[1] != want.Probs[1] ||
				got.MaxProbIndex != want.MaxProbIndex {
				t.Error("service outputs diverged from engine outputs")
			}
			for i := range got.Samples {
				if got.Samples[i] != want.Samples[i] {
					t.Error("service shot stream diverged from engine shot stream")
					break
				}
			}
		}()
	}
	wg.Wait()
}

// TestServiceOutputsDistributedPool: output requests schedule over a
// distributed engine's rank-group leases like energy requests, for
// float64 diagonal slices (LABS n = 7) and uint16-coded ones (3-regular
// MaxCut n = 10, whose K = 2 half slices are exact grids).
func TestServiceOutputsDistributedPool(t *testing.T) {
	g, err := graphs.RandomRegular(10, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, prob := range []struct {
		name string
		n    int
		ts   poly.Terms
	}{{"labs", 7, problems.LABSTerms(7)}, {"maxcut", 10, problems.MaxCutTerms(g)}} {
		eng, err := distsim.NewGradEngine(prob.n, prob.ts, distsim.Options{Ranks: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New([]evaluator.Evaluator{eng})
		if err != nil {
			t.Fatal(err)
		}
		x := []float64{0.3, 0.4}
		spec := evaluator.OutputSpec{CVaRAlphas: []float64{0.25}, Shots: 20, Seed: 5}
		want, err := eng.EvalOutputs(context.Background(), x, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.EvalOutputs(context.Background(), x, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.CVaR[0] != want.CVaR[0] || got.Overlap != want.Overlap {
			t.Errorf("%s: service outputs diverged", prob.name)
		}
		s.Close()
	}
}

// TestServiceOutputsUnsupportedPool: a pool with any output-less
// evaluator rejects EvalOutputs up front without queueing.
func TestServiceOutputsUnsupportedPool(t *testing.T) {
	s, err := New([]evaluator.Evaluator{&fakeEval{n: 5, grad: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Caps().Outputs {
		t.Fatal("fakeEval pool must not advertise outputs")
	}
	_, err = s.EvalOutputs(context.Background(), []float64{0.1, 0.2}, evaluator.OutputSpec{Shots: 1})
	if err == nil || !strings.Contains(err.Error(), "EvalOutputs unavailable") {
		t.Fatalf("unsupported pool: err = %v", err)
	}
}

// TestServiceOutputsClosed: output requests against a closed service
// fail with ErrClosed like any other request.
func TestServiceOutputsClosed(t *testing.T) {
	sim, err := core.New(5, problems.LABSTerms(5), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(workspaces(sim, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.EvalOutputs(context.Background(), []float64{0.1, 0.2}, evaluator.OutputSpec{}); err != ErrClosed {
		t.Fatalf("closed service: err = %v", err)
	}
}
