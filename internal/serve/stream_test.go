package serve

import (
	"context"
	"strings"
	"sync"
	"testing"

	"qokit/internal/core"
	"qokit/internal/evaluator"
	"qokit/internal/problems"
)

// TestServiceStreamSamples: StreamSamples through the queue reproduces
// the engine's buffered shot sequence chunk by chunk, concurrently
// from many submitters.
func TestServiceStreamSamples(t *testing.T) {
	n := 6
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
	if !s.Caps().Streaming {
		t.Fatal("single-node pool should advertise streaming")
	}
	x := []float64{0.3, -0.2, 0.4, 0.1}
	shots := evaluator.SampleChunkSize + 33
	spec := evaluator.OutputSpec{Shots: shots, Seed: 9}
	want, err := eng.EvalOutputs(context.Background(), x, spec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]uint64, 0, shots)
			err := s.StreamSamples(context.Background(), x, spec, func(chunk []uint64) error {
				got = append(got, chunk...)
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) != shots {
				t.Errorf("streamed %d shots, want %d", len(got), shots)
				return
			}
			for i := range got {
				if got[i] != want.Samples[i] {
					t.Error("service shot stream diverged from engine shot stream")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestServiceStreamUnsupportedPool: a pool with any non-streaming
// evaluator rejects StreamSamples up front without queueing.
func TestServiceStreamUnsupportedPool(t *testing.T) {
	s, err := New([]evaluator.Evaluator{&fakeEval{n: 5, grad: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Caps().Streaming {
		t.Fatal("fakeEval pool must not advertise streaming")
	}
	err = s.StreamSamples(context.Background(), []float64{0.1, 0.2}, evaluator.OutputSpec{Shots: 1},
		func([]uint64) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "StreamSamples unavailable") {
		t.Fatalf("unsupported pool: err = %v", err)
	}
}

// TestServiceStreamClosed: streaming against a closed service fails
// with ErrClosed like any other request.
func TestServiceStreamClosed(t *testing.T) {
	sim, err := core.New(5, problems.LABSTerms(5), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(workspaces(sim, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	err = s.StreamSamples(context.Background(), []float64{0.1, 0.2}, evaluator.OutputSpec{Shots: 1},
		func([]uint64) error { return nil })
	if err != ErrClosed {
		t.Fatalf("closed service: err = %v", err)
	}
}
