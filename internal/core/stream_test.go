package core

import (
	"context"
	"strings"
	"testing"

	"qokit/internal/evaluator"
	"qokit/internal/problems"
)

func streamTestSim(t *testing.T, n int) *Simulator {
	t.Helper()
	diag := make([]float64, 1<<n)
	for i := range diag {
		diag[i] = float64((i*2654435761)%23) - 11
	}
	s, err := NewFromDiagonal(n, diag, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStreamSamplesMatchesBuffered: with the same seed, the
// concatenation of StreamSamples' chunks is exactly the Samples slice
// EvalOutputs returns — both paths draw through one chunked loop — and
// every chunk except the last has length SampleChunkSize, on a full
// state and on LABS's quarter state, whose shots take a second draw.
func TestStreamSamplesMatchesBuffered(t *testing.T) {
	labs, err := New(6, problems.LABSTerms(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	requirePivots(t, "labs n=6", labs, 2)
	for _, s := range []*Simulator{streamTestSim(t, 6), labs} {
		checkStreamMatchesBuffered(t, s)
	}
}

// checkStreamMatchesBuffered runs TestStreamSamplesMatchesBuffered on
// one simulator.
func checkStreamMatchesBuffered(t *testing.T, s *Simulator) {
	x := []float64{0.4, -0.3, 0.2, 0.5}
	// Crosses two chunk boundaries and ends on a partial chunk.
	shots := 2*evaluator.SampleChunkSize + 17
	spec := evaluator.OutputSpec{Shots: shots, Seed: 11}

	want, err := s.EvalOutputs(context.Background(), x, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Samples) != shots {
		t.Fatalf("buffered path drew %d shots, want %d", len(want.Samples), shots)
	}

	var got []uint64
	var chunkLens []int
	err = s.StreamSamples(context.Background(), x, spec, func(chunk []uint64) error {
		chunkLens = append(chunkLens, len(chunk))
		got = append(got, chunk...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != shots {
		t.Fatalf("streamed %d shots, want %d", len(got), shots)
	}
	for i := range got {
		if got[i] != want.Samples[i] {
			t.Fatalf("stream diverges from buffered draw at shot %d: %d != %d", i, got[i], want.Samples[i])
		}
	}
	for i, l := range chunkLens {
		wantLen := evaluator.SampleChunkSize
		if i == len(chunkLens)-1 {
			wantLen = 17
		}
		if l != wantLen {
			t.Fatalf("chunk %d has length %d, want %d", i, l, wantLen)
		}
	}
}

// TestStreamSamplesBeyondBufferedBound: shot counts the buffered path
// rejects stream fine — that is the point of the chunked contract.
func TestStreamSamplesBeyondBufferedBound(t *testing.T) {
	if testing.Short() {
		t.Skip("draws MaxShotsPerRequest+1 shots")
	}
	s := streamTestSim(t, 4)
	x := []float64{0.3, 0.2}
	spec := evaluator.OutputSpec{Shots: evaluator.MaxShotsPerRequest + 1, Seed: 3}

	if _, err := s.EvalOutputs(context.Background(), x, spec); err == nil ||
		!strings.Contains(err.Error(), "OutputSpec.Shots") {
		t.Fatalf("buffered path must reject over-bound Shots, got %v", err)
	}
	var total int
	err := s.StreamSamples(context.Background(), x, spec, func(chunk []uint64) error {
		if len(chunk) > evaluator.SampleChunkSize {
			t.Fatalf("chunk length %d exceeds SampleChunkSize", len(chunk))
		}
		total += len(chunk)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != spec.Shots {
		t.Fatalf("streamed %d shots, want %d", total, spec.Shots)
	}
}

// TestStreamSamplesAborts: a consumer error stops the stream and comes
// back verbatim, and cancelling the context stops it at the next chunk
// boundary.
func TestStreamSamplesAborts(t *testing.T) {
	s := streamTestSim(t, 5)
	x := []float64{0.1, 0.6}
	spec := evaluator.OutputSpec{Shots: 3 * evaluator.SampleChunkSize, Seed: 7}

	calls := 0
	wantErr := context.DeadlineExceeded // any sentinel works; reuse a stdlib one
	err := s.StreamSamples(context.Background(), x, spec, func([]uint64) error {
		calls++
		return wantErr
	})
	if err != wantErr || calls != 1 {
		t.Fatalf("consumer error: err=%v calls=%d, want %v after 1 chunk", err, calls, wantErr)
	}

	ctx, cancel := context.WithCancel(context.Background())
	calls = 0
	err = s.StreamSamples(ctx, x, spec, func([]uint64) error {
		calls++
		cancel()
		return nil
	})
	if err != context.Canceled || calls != 1 {
		t.Fatalf("cancellation: err=%v calls=%d, want context.Canceled after 1 chunk", err, calls)
	}

	// Zero shots: no evolution needed, no chunks delivered.
	if err := s.StreamSamples(context.Background(), x, evaluator.OutputSpec{}, func([]uint64) error {
		t.Fatal("zero-shot stream delivered a chunk")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
