package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"qokit/internal/evaluator"
)

// slowFactory blocks in New until released, modeling a build that pays
// a long diagonal precompute.
type slowFactory struct {
	n          int
	stateBytes int64
	start      chan struct{} // closed allows New to proceed

	mu    sync.Mutex
	built int
}

func (f *slowFactory) Caps() evaluator.Caps {
	return evaluator.Caps{NumQubits: f.n, Grad: true, Ranks: 1, StateBytes: f.stateBytes}
}

func (f *slowFactory) New(ctx context.Context) (evaluator.Evaluator, error) {
	<-f.start
	f.mu.Lock()
	f.built++
	f.mu.Unlock()
	return &fakeEval{n: f.n, grad: true}, nil
}

func (f *slowFactory) Retire(ev evaluator.Evaluator) error { return nil }

// With a budget that fits exactly one build, concurrent cold binds
// (floor workers, or growth while the first build is still in flight)
// must not all bypass the budget via the first-build exemption.
func TestReviewBudgetColdStartOvershoot(t *testing.T) {
	f := &slowFactory{n: 4, stateBytes: 100, start: make(chan struct{})}
	svc, err := NewElastic([]evaluator.Factory{f}, ElasticOptions{
		MinWorkers: 4, MaxWorkers: 8, MemoryBudget: 150, IdleDecay: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	time.Sleep(50 * time.Millisecond) // let all floor workers reach bind
	close(f.start)
	time.Sleep(100 * time.Millisecond)
	f.mu.Lock()
	built := f.built
	f.mu.Unlock()
	if built > 1 {
		t.Errorf("budget for one build admitted %d concurrent builds (%d bytes against a 150-byte budget)",
			built, int64(built)*f.stateBytes)
	}
}
