// Package serve is the concurrent evaluation service: one FIFO
// request queue feeding one pool of workers, each bound to an
// evaluator.Evaluator — caller-built (New) or built on demand from
// factories (NewElastic). It turns the evaluators (single-node
// workspaces, sharded cluster engines, light-cone engines) into one
// schedulable resource:
//
//   - requests are point energies, point gradients, measurement-style
//     outputs (sampling, CVaR, overlap — when every evaluator in the
//     pool serves them), or batches of energies/gradients; a batch
//     fans out as per-point tasks, so its points fill every idle
//     worker instead of serializing behind one;
//   - workers are evaluator-affine: each worker is bound to one
//     evaluator for its lifetime and runs one evaluation at a time, so
//     the evaluator's buffers stay warm per worker and a steady request
//     stream performs no per-request state allocations. The pool's
//     size — the evaluators passed to New, or NewElastic's MinWorkers
//     and MaxWorkers — is the service's only concurrency setting;
//   - the queue is strictly FIFO — a point query enqueued after a
//     large batch runs after that batch's points, and nothing
//     reorders within a batch — which makes latency predictable under
//     mixed load;
//   - every request carries a context.Context: cancellation fails the
//     request's remaining tasks at the next pop or point boundary,
//     workers and pooled buffers survive, and a request still waiting
//     in the queue is withdrawn immediately.
//
// The Service itself implements evaluator.Evaluator, so services
// compose (a local service can stand in anywhere an engine does) and
// every optimizer in this repository runs through one code path
// whether the substrate is one simulator or a pool of rank groups.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"qokit/internal/evaluator"
)

// ErrClosed is returned for requests submitted to (or stranded in) a
// closed service.
var ErrClosed = errors.New("serve: service closed")

// Service schedules evaluation requests over a pool of evaluators.
// All methods are safe for concurrent use.
type Service struct {
	caps evaluator.Caps

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*task
	head   int
	closed bool

	wg       sync.WaitGroup
	taskPool sync.Pool

	// el is the worker pool's scale state; a pool built by New is the
	// elastic pool with MinWorkers == MaxWorkers.
	el *elastic
}

// task is one unit of work: a point evaluation belonging either to a
// single request (done channel) or to a batch (tracker + slot index).
type task struct {
	ctx  context.Context
	grad bool
	x    []float64
	g    []float64

	// Output request: non-nil spec routes the task through
	// EvalOutputs instead of Energy/EnergyGrad; the worker writes the
	// result into outs.
	spec *evaluator.OutputSpec
	outs *evaluator.Outputs

	// Streaming request: a non-nil stream closure runs against the
	// worker's bound evaluator (chunked sampling — the submitter's
	// chunk callback is captured inside).
	stream func(ev evaluator.Evaluator) error

	// Single-request completion: the worker writes energy/err and
	// signals done (capacity 1, reused across uses via the pool).
	energy float64
	err    error
	done   chan struct{}

	// Batch membership: the worker writes the tracker's slot idx and
	// counts down its WaitGroup instead of signalling done.
	tr  *batchTracker
	idx int
}

type batchTracker struct {
	wg       sync.WaitGroup
	mu       sync.Mutex
	firstErr error
	energies []float64
	grads    [][]float64
}

func (tr *batchTracker) fail(err error) {
	tr.mu.Lock()
	if tr.firstErr == nil {
		tr.firstErr = err
	}
	tr.mu.Unlock()
}

// failedErr returns the batch's latched first error (nil while the
// batch is healthy). Workers consult it before evaluating so a failed
// batch's remaining points are settled without paying for their
// evaluations.
func (tr *batchTracker) failedErr() error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.firstErr
}

// New builds a service over caller-built evaluators and starts one
// worker per evaluator, so the list's length is the pool's size: an
// evaluator that is safe for concurrent calls (a core.Simulator, the
// light-cone engine, another Service) gets k workers by being listed k
// times. A distsim.GradEngine takes its callers in turn, so more
// sharded evaluations take more engines. All evaluators must be bound
// to the same qubit count; the aggregate Caps reports Grad only when
// every evaluator supports it and sums StateBytes over the list, an
// evaluator listed k times k times. The evaluators stay the caller's
// and are never retired, so the pool is the elastic one with
// MinWorkers == MaxWorkers: it never grows or decays.
func New(evals []evaluator.Evaluator) (*Service, error) {
	if len(evals) == 0 {
		return nil, fmt.Errorf("serve: no evaluators")
	}
	for i, ev := range evals {
		if ev == nil {
			return nil, fmt.Errorf("serve: evaluator %d is nil", i)
		}
	}
	// Validate the whole pool before starting any worker: a mismatch
	// must not leak goroutines parked on a queue no one will close.
	caps := evals[0].Caps()
	caps.StateBytes = 0
	for i, ev := range evals {
		c := ev.Caps()
		if c.NumQubits != caps.NumQubits {
			return nil, fmt.Errorf("serve: evaluator %d is bound to n=%d, evaluator 0 to n=%d",
				i, c.NumQubits, caps.NumQubits)
		}
		caps.Grad = caps.Grad && c.Grad
		caps.Outputs = caps.Outputs && c.Outputs
		caps.Streaming = caps.Streaming && c.Streaming
		if c.Ranks > caps.Ranks {
			caps.Ranks = c.Ranks
		}
		caps.StateBytes += c.StateBytes
	}
	s := newService(caps, ElasticOptions{MinWorkers: len(evals), MaxWorkers: len(evals)}, nil)
	for _, ev := range evals {
		s.wg.Add(1)
		go s.worker(nil, ev)
	}
	return s, nil
}

// Caps reports the pool's aggregate metadata: StateBytes is the state
// memory pinned at full load, Ranks the widest substrate in the pool.
func (s *Service) Caps() evaluator.Caps { return s.caps }

// Workers returns the pool's floor: every worker of a pool built by
// New, MinWorkers of an elastic one.
func (s *Service) Workers() int { return s.el.opts.MinWorkers }

// The service is itself an evaluator, so services substitute for
// engines anywhere the contract is accepted (including inside another
// service).
var _ evaluator.Evaluator = (*Service)(nil)

// It is also an output evaluator when its pool is (Caps().Outputs);
// requests against a pool that is not fail without queueing.
var _ evaluator.OutputEvaluator = (*Service)(nil)

// Energy evaluates one point through the pool.
func (s *Service) Energy(ctx context.Context, x []float64) (float64, error) {
	return s.submit(ctx, x, nil, false)
}

// EnergyGrad evaluates one point's energy and exact gradient through
// the pool.
func (s *Service) EnergyGrad(ctx context.Context, x, grad []float64) (float64, error) {
	if err := evaluator.CheckGradStorage(x, grad); err != nil {
		return 0, err
	}
	if !s.caps.Grad {
		return 0, fmt.Errorf("serve: pool has a gradient-free evaluator; EnergyGrad unavailable")
	}
	return s.submit(ctx, x, grad, true)
}

// EvalOutputs evaluates one point's measurement-style outputs
// (sampling, CVaR, overlap, probability queries) through the pool —
// the same FIFO queue and worker leases as energy requests
// (evaluator.OutputEvaluator).
func (s *Service) EvalOutputs(ctx context.Context, x []float64, spec evaluator.OutputSpec) (*evaluator.Outputs, error) {
	if _, _, err := evaluator.SplitFlat(x); err != nil {
		return nil, err
	}
	if !s.caps.Outputs {
		return nil, fmt.Errorf("serve: pool has an evaluator without output support; EvalOutputs unavailable")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := s.taskPool.Get().(*task)
	t.ctx, t.x, t.spec, t.tr = ctx, x, &spec, nil
	if err := s.await(ctx, t); err != nil {
		s.putTask(t)
		return nil, err
	}
	outs, err := t.outs, t.err
	s.putTask(t)
	return outs, err
}

// The service streams samples when its whole pool does
// (Caps().Streaming); requests against a pool that does not fail
// without queueing.
var _ evaluator.SampleStreamer = (*Service)(nil)

// StreamSamples streams one point's sampled basis indices through the
// pool in bounded chunks (evaluator.SampleStreamer): the request holds
// one worker for its duration, and fn runs on that worker's goroutine,
// so a slow consumer backpressures the stream rather than buffering
// it. The chunk slice is reused; fn must copy anything it keeps.
func (s *Service) StreamSamples(ctx context.Context, x []float64, spec evaluator.OutputSpec, fn func(chunk []uint64) error) error {
	if _, _, err := evaluator.SplitFlat(x); err != nil {
		return err
	}
	if !s.caps.Streaming {
		return fmt.Errorf("serve: pool has an evaluator without streaming support; StreamSamples unavailable")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	t := s.taskPool.Get().(*task)
	t.ctx, t.x, t.tr = ctx, x, nil
	t.stream = func(ev evaluator.Evaluator) error {
		ss, ok := ev.(evaluator.SampleStreamer)
		if !ok {
			// Caps().Streaming aggregation makes this unreachable for a
			// pool that accepted the request; the guard keeps a mixed
			// pool fail-safe.
			return fmt.Errorf("serve: evaluator does not implement SampleStreamer")
		}
		return ss.StreamSamples(ctx, x, spec, fn)
	}
	if err := s.await(ctx, t); err != nil {
		s.putTask(t)
		return err
	}
	err := t.err
	s.putTask(t)
	return err
}

func (s *Service) submit(ctx context.Context, x, g []float64, grad bool) (float64, error) {
	if _, _, err := evaluator.SplitFlat(x); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	t := s.taskPool.Get().(*task)
	t.ctx, t.x, t.g, t.grad, t.tr = ctx, x, g, grad, nil
	if err := s.await(ctx, t); err != nil {
		s.putTask(t)
		return 0, err
	}
	e, err := t.energy, t.err
	s.putTask(t)
	return e, err
}

// await pushes a single-request task and blocks until a worker settles
// it. A non-nil return means the task never reached a worker (push
// rejection or withdrawal before claim) and carries no result.
func (s *Service) await(ctx context.Context, t *task) error {
	if err := s.push(t); err != nil {
		return err
	}
	if ctx.Done() != nil {
		select {
		case <-t.done:
		case <-ctx.Done():
			if s.tryRemove(t) {
				// Withdrawn before any worker touched it.
				return ctx.Err()
			}
			// A worker holds it; the evaluator observes the same ctx
			// and finishes promptly.
			<-t.done
		}
	} else {
		<-t.done
	}
	return nil
}

// EnergyBatch evaluates every flat parameter vector in xs and returns
// the energies in input order, fanned across all pool workers. out is
// reused when its capacity suffices. On error (including ctx
// cancellation) the batch's remaining points are abandoned at their
// next point boundary and the first error is returned.
func (s *Service) EnergyBatch(ctx context.Context, xs [][]float64, out []float64) ([]float64, error) {
	return s.batch(ctx, xs, out, nil)
}

// EnergyGradBatch is EnergyBatch for gradients: grads[i] receives
// ∇E(xs[i]) (len(grads[i]) == len(xs[i]) each, caller-allocated), and
// the energies come back in input order.
func (s *Service) EnergyGradBatch(ctx context.Context, xs [][]float64, energies []float64, grads [][]float64) ([]float64, error) {
	if len(grads) != len(xs) {
		return nil, fmt.Errorf("serve: %d gradient slots for %d points", len(grads), len(xs))
	}
	if !s.caps.Grad {
		return nil, fmt.Errorf("serve: pool has a gradient-free evaluator; EnergyGradBatch unavailable")
	}
	return s.batch(ctx, xs, energies, grads)
}

func (s *Service) batch(ctx context.Context, xs [][]float64, out []float64, grads [][]float64) ([]float64, error) {
	for i, x := range xs {
		if _, _, err := evaluator.SplitFlat(x); err != nil {
			return nil, fmt.Errorf("serve: point %d: %w", i, err)
		}
		if grads != nil {
			if err := evaluator.CheckGradStorage(x, grads[i]); err != nil {
				return nil, fmt.Errorf("serve: point %d: %w", i, err)
			}
		}
	}
	if cap(out) < len(xs) {
		out = make([]float64, len(xs))
	}
	out = out[:len(xs)]
	if len(xs) == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := &batchTracker{energies: out, grads: grads}
	tr.wg.Add(len(xs))
	for i, x := range xs {
		t := s.taskPool.Get().(*task)
		t.ctx, t.x, t.grad, t.tr, t.idx = ctx, x, grads != nil, tr, i
		if grads != nil {
			t.g = grads[i]
		}
		if err := s.push(t); err != nil {
			s.putTask(t)
			tr.fail(err)
			// Settle this task's slot and every never-pushed one.
			for j := i; j < len(xs); j++ {
				tr.wg.Done()
			}
			break
		}
	}
	tr.wg.Wait()
	if tr.firstErr != nil {
		return nil, tr.firstErr
	}
	return out, nil
}

// Objective adapts the service into the scalar objective
// internal/optimize's derivative-free optimizers consume. The first
// evaluation error is latched into *simErr; later calls short-circuit.
func (s *Service) Objective(ctx context.Context, simErr *error) func(x []float64) float64 {
	return func(x []float64) float64 {
		if *simErr != nil {
			return 0
		}
		v, err := s.Energy(ctx, x)
		if err != nil {
			*simErr = err
			return 0
		}
		return v
	}
}

// GradObjective adapts the service into the value-and-gradient
// objective the gradient optimizers consume, latching the first error
// like Objective.
func (s *Service) GradObjective(ctx context.Context, simErr *error) func(x, g []float64) float64 {
	return func(x, g []float64) float64 {
		if *simErr != nil {
			return 0
		}
		v, err := s.EnergyGrad(ctx, x, g)
		if err != nil {
			*simErr = err
			return 0
		}
		return v
	}
}

// Close drains the service: queued requests fail with ErrClosed,
// workers exit after their current task, and subsequent submissions
// are rejected. Close blocks until every worker has stopped.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	stranded := append([]*task(nil), s.queue[s.head:]...)
	s.queue = nil
	s.head = 0
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, t := range stranded {
		s.finish(t, 0, ErrClosed)
	}
	s.wg.Wait()
}

// push appends a task to the FIFO queue.
func (s *Service) push(t *task) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.queue = append(s.queue, t)
	s.maybeGrowLocked()
	s.cond.Signal()
	s.mu.Unlock()
	return nil
}

// tryRemove withdraws a still-queued task (cancellation of a waiting
// single request). False means a worker already claimed it.
func (s *Service) tryRemove(t *task) bool {
	s.mu.Lock()
	for i := s.head; i < len(s.queue); i++ {
		if s.queue[i] == t {
			copy(s.queue[i:], s.queue[i+1:])
			s.queue[len(s.queue)-1] = nil
			s.queue = s.queue[:len(s.queue)-1]
			s.mu.Unlock()
			return true
		}
	}
	s.mu.Unlock()
	return false
}

// serveTask evaluates one claimed task against a worker's bound
// evaluator and settles it.
func (s *Service) serveTask(ev evaluator.Evaluator, t *task) {
	var e float64
	err := t.ctx.Err()
	if err == nil && t.tr != nil {
		// A failed batch abandons its remaining points here — they
		// settle with the latched error instead of evaluating.
		err = t.tr.failedErr()
	}
	if err == nil {
		switch {
		case t.stream != nil:
			err = t.stream(ev)
		case t.spec != nil:
			// Caps().Outputs aggregation guarantees the assertion
			// holds for every evaluator in a pool that accepted the
			// request; the guard keeps a mixed pool fail-safe.
			if oe, ok := ev.(evaluator.OutputEvaluator); ok {
				t.outs, err = oe.EvalOutputs(t.ctx, t.x, *t.spec)
			} else {
				err = fmt.Errorf("serve: evaluator does not implement OutputEvaluator")
			}
		case t.grad:
			e, err = ev.EnergyGrad(t.ctx, t.x, t.g)
		default:
			e, err = ev.Energy(t.ctx, t.x)
		}
	}
	s.finish(t, e, err)
}

// finish completes one task: batch tasks report into their tracker
// and return to the pool here; single tasks hand the result back to
// the submitter, who recycles them after reading it.
func (s *Service) finish(t *task, e float64, err error) {
	if tr := t.tr; tr != nil {
		if err != nil {
			tr.fail(err)
		} else {
			tr.energies[t.idx] = e
		}
		s.putTask(t)
		tr.wg.Done()
		return
	}
	t.energy, t.err = e, err
	t.done <- struct{}{}
}

// putTask clears a task's references and recycles it.
func (s *Service) putTask(t *task) {
	t.ctx, t.x, t.g, t.tr, t.spec, t.outs, t.stream = nil, nil, nil, nil, nil, nil, nil
	s.taskPool.Put(t)
}
