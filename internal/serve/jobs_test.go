package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"qokit/internal/evaluator"
	"qokit/internal/optimize"
)

// quadEval is a deterministic value-and-gradient evaluator for the
// durable-job tests: f(x) = Σᵢ (xᵢ − i/10)², minimized at xᵢ = i/10.
// After failAfter successful gradient evaluations every further call
// fails — the crashing-pool stand-in.
type quadEval struct {
	n         int
	failAfter int64 // 0 = never fail
	calls     atomic.Int64
}

var errPoolDown = errors.New("evaluator node lost")

func (q *quadEval) eval(x, g []float64) float64 {
	var f float64
	for i := range x {
		d := x[i] - float64(i)/10
		f += d * d
		if g != nil {
			g[i] = 2 * d
		}
	}
	return f
}

func (q *quadEval) Energy(ctx context.Context, x []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return q.eval(x, nil), nil
}

func (q *quadEval) EnergyGrad(ctx context.Context, x, g []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if c := q.calls.Add(1); q.failAfter > 0 && c > q.failAfter {
		return 0, errPoolDown
	}
	return q.eval(x, g), nil
}

func (q *quadEval) Caps() evaluator.Caps {
	return evaluator.Caps{NumQubits: q.n, Grad: true, Ranks: 1, StateBytes: 1}
}

// TestOptimizeAdamRestartedPool is the serving-layer durability
// contract: a pool whose evaluator dies mid-job leaves the optimizer
// checkpoint behind, and a freshly built pool resumes the job from it
// and lands bit-identical to a pool that never failed.
func TestOptimizeAdamRestartedPool(t *testing.T) {
	x0 := []float64{0.9, -0.4, 0.7, 0.2}
	jo := func(path string) JobOptions {
		return JobOptions{
			Adam:           optimize.AdamOptions{MaxIter: 10, Step: 0.1, TolGrad: 1e-12},
			CheckpointPath: path,
		}
	}
	newPool := func(t *testing.T, q *quadEval) *Service {
		t.Helper()
		s, err := New([]evaluator.Evaluator{q})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}

	// The reference: one pool, no interruption.
	full, err := newPool(t, &quadEval{n: 4}).OptimizeAdam(context.Background(), x0, jo(""))
	if err != nil {
		t.Fatal(err)
	}
	if full.Evals != 10 {
		t.Fatalf("uninterrupted job used %d evals, want 10", full.Evals)
	}

	// The crash: the evaluator dies after 6 gradient evaluations.
	path := filepath.Join(t.TempDir(), "job.ckpt")
	if _, err := newPool(t, &quadEval{n: 4, failAfter: 6}).OptimizeAdam(context.Background(), x0, jo(path)); !errors.Is(err, errPoolDown) {
		t.Fatalf("crashed job returned %v, want the evaluator failure", err)
	}
	st, err := optimize.LoadAdamState(path)
	if err != nil {
		t.Fatalf("no optimizer checkpoint after the crash: %v", err)
	}
	if st.Iter != 6 || st.Evals != 6 {
		t.Fatalf("checkpoint at iter=%d evals=%d, want 6/6 (last completed iteration)", st.Iter, st.Evals)
	}

	// The restart: a brand-new pool picks the job up from disk.
	res, err := newPool(t, &quadEval{n: 4}).OptimizeAdam(context.Background(), x0, jo(path))
	if err != nil {
		t.Fatalf("resumed job failed: %v", err)
	}
	if res.F != full.F || res.Iters != full.Iters || res.Evals != full.Evals {
		t.Fatalf("resumed (F=%v, iters=%d, evals=%d) != uninterrupted (F=%v, iters=%d, evals=%d)",
			res.F, res.Iters, res.Evals, full.F, full.Iters, full.Evals)
	}
	for i := range res.X {
		if res.X[i] != full.X[i] {
			t.Fatalf("resumed X[%d]=%v differs from uninterrupted %v (not bit-identical)", i, res.X[i], full.X[i])
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("completed job left its checkpoint behind (stat: %v)", err)
	}
}

// TestOptimizeAdamValidation covers the job runner's refusals: a
// gradient-free pool, caller-managed hooks, and a dimension-mismatched
// checkpoint.
func TestOptimizeAdamValidation(t *testing.T) {
	q := &quadEval{n: 4}
	s, err := New([]evaluator.Evaluator{q})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.OptimizeAdam(context.Background(), []float64{1, 2}, JobOptions{
		Adam: optimize.AdamOptions{Resume: &optimize.AdamState{}},
	}); err == nil {
		t.Error("caller-set Resume accepted")
	}

	// A checkpoint of the wrong dimension must refuse, not resume.
	path := filepath.Join(t.TempDir(), "job.ckpt")
	if err := optimize.SaveAdamState(path, &optimize.AdamState{
		X: []float64{1, 2}, M: []float64{0, 0}, V: []float64{0, 0},
		B1t: 0.9, B2t: 0.999, Iter: 1, BestX: []float64{1, 2}, BestF: 3, Evals: 1,
	}); err != nil {
		t.Fatal(err)
	}
	jo := JobOptions{Adam: optimize.AdamOptions{MaxIter: 2}, CheckpointPath: path}
	if _, err := s.OptimizeAdam(context.Background(), []float64{1, 2, 3, 4}, jo); err == nil {
		t.Error("dimension-mismatched checkpoint accepted")
	}
}
