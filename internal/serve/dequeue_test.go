package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"qokit/internal/evaluator"
)

// TestPopSettlesCancelledTasks drives pop directly against a bare
// (workerless) queue: a run of already-cancelled tasks ahead of a live
// one must be settled inside the single pop call — each with its
// context error — and the live task returned, so dead requests never
// claim a worker iteration each.
func TestPopSettlesCancelledTasks(t *testing.T) {
	// One worker counted live and none started: push never grows it.
	s := newService(evaluator.Caps{}, ElasticOptions{MinWorkers: 1, MaxWorkers: 1}, nil)

	dead, cancel := context.WithCancel(context.Background())
	cancel()

	// Two cancelled single requests and one cancelled batch point ahead
	// of the live request.
	d1 := &task{ctx: dead, done: make(chan struct{}, 1)}
	d2 := &task{ctx: dead, done: make(chan struct{}, 1)}
	tr := &batchTracker{energies: make([]float64, 1)}
	tr.wg.Add(1)
	db := &task{ctx: dead, tr: tr}
	live := &task{ctx: context.Background(), done: make(chan struct{}, 1)}
	for _, tk := range []*task{d1, d2, db, live} {
		if err := s.push(tk); err != nil {
			t.Fatal(err)
		}
	}

	got := s.pop()
	if got != live {
		t.Fatalf("pop returned %p, want the live task %p", got, live)
	}
	for i, d := range []*task{d1, d2} {
		select {
		case <-d.done:
		default:
			t.Fatalf("dead single task %d not settled by pop", i)
		}
		if !errors.Is(d.err, context.Canceled) {
			t.Errorf("dead task %d error = %v, want context.Canceled", i, d.err)
		}
	}
	tr.wg.Wait() // settled batch point: wg counted down by pop
	if !errors.Is(tr.firstErr, context.Canceled) {
		t.Errorf("batch tracker error = %v, want context.Canceled", tr.firstErr)
	}
	s.mu.Lock()
	if rem := len(s.queue) - s.head; rem != 0 {
		t.Errorf("%d tasks left queued", rem)
	}
	s.mu.Unlock()
}

// TestCancelledQueueDoesNotStarveLiveRequest is the end-to-end S-curve:
// a single-worker pool busy on one request, a whole batch cancelled
// while queued behind it, and a live request queued last. The dead
// batch must settle without one evaluator call, and the live request
// must run as the very next evaluation.
func TestCancelledQueueDoesNotStarveLiveRequest(t *testing.T) {
	fe := &fakeEval{n: 4, grad: true, gate: make(chan struct{}, 64)}
	s, err := New([]evaluator.Evaluator{fe})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Occupy the only worker.
	aDone := make(chan error, 1)
	go func() {
		_, err := s.Energy(context.Background(), flat(1, 2))
		aDone <- err
	}()
	waitFor(t, func() bool { return fe.inFlight.Load() == 1 })

	// Queue a batch behind it, then cancel the batch while it waits.
	bctx, bcancel := context.WithCancel(context.Background())
	batchDone := make(chan error, 1)
	go func() {
		_, err := s.EnergyBatch(bctx, [][]float64{flat(10, 0), flat(11, 0), flat(12, 0), flat(13, 0)}, nil)
		batchDone <- err
	}()
	waitFor(t, func() bool { return queueLen(s) == 4 })
	bcancel()

	// A live request queued behind the four corpses.
	liveDone := make(chan float64, 1)
	go func() {
		v, err := s.Energy(context.Background(), flat(2, 0))
		if err != nil {
			t.Errorf("live request failed: %v", err)
		}
		liveDone <- v
	}()
	waitFor(t, func() bool { return queueLen(s) == 5 })

	// Two gate tokens: one finishes the in-flight request, one serves
	// the live request. The dead batch gets none.
	fe.gate <- struct{}{}
	fe.gate <- struct{}{}

	if err := <-aDone; err != nil {
		t.Fatalf("first request: %v", err)
	}
	if err := <-batchDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	if v := <-liveDone; v != -2 {
		t.Fatalf("live request = %v, want -2", v)
	}
	fe.mu.Lock()
	order := append([]float64(nil), fe.order...)
	fe.mu.Unlock()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("evaluator served %v, want exactly [1 2] (no cancelled batch point)", order)
	}
}

// queueLen reads the live queue length under the service lock.
func queueLen(s *Service) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) - s.head
}

// waitFor polls cond until true or the deadline trips.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for condition")
		}
		time.Sleep(time.Millisecond)
	}
}
