// Package sweep is the concurrent batch-evaluation engine for QAOA
// parameter sweeps. The paper's central observation — precompute the
// cost diagonal once, then every (γ, β) evaluation is cheap — makes
// the dominant real workload a *batch* one: optimizers, landscape
// scans (Figs. 3–4), and INTERP schedules all evaluate many parameter
// points against one shared diagonal. This package turns that access
// pattern into a first-class engine:
//
//   - one shared read-only *core.Simulator (diagonal, phase tables,
//     initial state) serves every point;
//   - a fixed worker pool fans the points out, each worker owning a
//     reusable state buffer (core.Simulator.NewResult), so a sweep of
//     any size performs zero per-point state-vector allocations after
//     warm-up;
//   - results come back in input order as plain float64 observables.
//
// A 64×64 landscape scan or a 10³-evaluation optimization differs
// from a single SimulateQAOA call only in throughput, not in code.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"qokit/internal/core"
	"qokit/internal/evaluator"
)

// Point is one QAOA parameter set to evaluate: γ and β schedules of
// equal length p.
type Point struct {
	Gamma, Beta []float64
}

// Result holds the observables evaluated at one point. Energy is the
// QAOA objective ⟨γ,β|Ĉ|γ,β⟩; Overlap is the ground-state probability
// and is filled only when Options.Overlap is set.
type Result struct {
	Energy  float64
	Overlap float64
}

// Options configures an Engine. The zero value uses GOMAXPROCS
// workers and evaluates the energy only.
type Options struct {
	// Workers is the number of concurrent evaluators (≤ 0 means
	// GOMAXPROCS). Each worker owns one state buffer, so memory grows
	// linearly with Workers, not with batch size.
	Workers int
	// Overlap additionally computes the ground-state overlap at every
	// point (one extra pass over the argmin set, not the full state).
	Overlap bool
}

// Engine evaluates batches of parameter points against one shared
// simulator. It is safe for concurrent use; buffers are pooled across
// calls, so steady-state sweeps allocate nothing per point.
type Engine struct {
	sim     *core.Simulator
	workers int
	overlap bool

	// inlineSim is a single-worker kernel-pool view of sim used by the
	// concurrent Sweep path: with w workers already saturating the
	// cores, nesting the simulator's own kernel goroutines under each
	// worker would oversubscribe ~w× for no throughput. Single-point
	// Evaluate and single-worker sweeps keep the full pooled sim,
	// where kernel-level parallelism is the only parallelism there is.
	inlineSim *core.Simulator

	mu   sync.Mutex
	free []*core.Result
	// freeGrad pools adjoint-gradient workspaces (pairs of state
	// buffers) for SweepGrad, under the same Workers cap as free.
	freeGrad []*core.GradBuffers
}

// New builds an engine over sim. The simulator is shared, not copied:
// it must not be reconfigured while the engine is in use (normal
// Simulators are read-only after construction, so any simulator from
// core.New qualifies).
func New(sim *core.Simulator, opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{sim: sim, workers: w, overlap: opts.Overlap}
	if w > 1 {
		e.inlineSim = sim.KernelPoolView(1)
	}
	return e
}

// Sim returns the shared simulator.
func (e *Engine) Sim() *core.Simulator { return e.sim }

// acquire pops a pooled state buffer or allocates the engine's next
// one; release returns it for reuse. At most Workers buffers are live
// during a Sweep, and they persist across calls.
func (e *Engine) acquire() *core.Result {
	e.mu.Lock()
	if n := len(e.free); n > 0 {
		r := e.free[n-1]
		e.free = e.free[:n-1]
		e.mu.Unlock()
		return r
	}
	e.mu.Unlock()
	return e.sim.NewResult()
}

func (e *Engine) release(r *core.Result) {
	e.mu.Lock()
	// Cap the pool at Workers buffers: overlapping Sweep calls may
	// have more in flight, and retaining those would pin state-vector
	// memory beyond the engine's steady-state need forever.
	if len(e.free) < e.workers {
		e.free = append(e.free, r)
	}
	e.mu.Unlock()
}

// Evaluate evaluates a single point through the engine's buffer pool —
// the path sequential optimizers drive, one allocation-free
// SimulateQAOAInto per objective call.
func (e *Engine) Evaluate(ctx context.Context, gamma, beta []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	r := e.acquire()
	defer e.release(r)
	if err := e.sim.SimulateQAOAInto(r, gamma, beta); err != nil {
		return 0, err
	}
	return r.Expectation(), nil
}

// Sweep evaluates every point and returns the results in input order.
// out is reused when its capacity suffices (pass a retained slice to
// make steady-state sweeps allocation-free; nil is fine otherwise).
//
// Points are distributed dynamically over the worker pool, so a batch
// mixing depths pays no stragglers beyond its single longest point.
// Cancelling ctx mid-batch stops workers at the next point boundary
// and returns ctx.Err(); every pooled buffer is released back to the
// engine, so an interrupted sweep leaks nothing.
func (e *Engine) Sweep(ctx context.Context, points []Point, out []Result) ([]Result, error) {
	if len(points) == 0 {
		return out[:0], nil
	}
	for i, pt := range points {
		if len(pt.Gamma) != len(pt.Beta) {
			return nil, fmt.Errorf("sweep: point %d: len(gamma)=%d != len(beta)=%d", i, len(pt.Gamma), len(pt.Beta))
		}
	}
	if cap(out) < len(points) {
		out = make([]Result, len(points))
	}
	out = out[:len(points)]

	w := e.workers
	if w > len(points) {
		w = len(points)
	}
	if w <= 1 {
		r := e.acquire()
		defer e.release(r)
		for i := range points {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := e.evalInto(r, points[i], &out[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	// res is a never-reassigned copy of the out header: the goroutines
	// capture it by value, so the out variable itself stays off the
	// heap and the inline path above remains allocation-free.
	res := out
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := e.acquire()
			defer e.release(r)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(res) || firstErr.Load() != nil {
					return
				}
				if err := ctx.Err(); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				if err := e.evalIntoWith(e.inlineSim, r, points[i], &res[i]); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if errp := firstErr.Load(); errp != nil {
		return nil, *errp
	}
	return out, nil
}

// evalInto evolves one point in the worker's buffer and reads out the
// requested observables.
func (e *Engine) evalInto(r *core.Result, pt Point, slot *Result) error {
	return e.evalIntoWith(e.sim, r, pt, slot)
}

// evalIntoWith is evalInto against an explicit simulator view (the
// concurrent path substitutes the single-worker kernel view). Every
// slot field is (re)written so reused result slices never leak values
// from a previous sweep.
func (e *Engine) evalIntoWith(sim *core.Simulator, r *core.Result, pt Point, slot *Result) error {
	if err := sim.SimulateQAOAInto(r, pt.Gamma, pt.Beta); err != nil {
		return err
	}
	slot.Energy = r.Expectation()
	if e.overlap {
		slot.Overlap = r.Overlap()
	} else {
		slot.Overlap = 0
	}
	return nil
}

// The sweep engine implements evaluator.Evaluator, so a serving layer
// can schedule point queries onto the same pooled buffers a batch
// sweep uses.
var _ evaluator.Evaluator = (*Engine)(nil)

// Energy evaluates the objective at the flat parameter vector through
// the engine's buffer pool (evaluator.Evaluator).
func (e *Engine) Energy(ctx context.Context, x []float64) (float64, error) {
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return 0, err
	}
	return e.Evaluate(ctx, gamma, beta)
}

// EnergyGrad evaluates the objective and its exact adjoint gradient at
// the flat parameter vector through the engine's pooled gradient
// workspaces (evaluator.Evaluator).
func (e *Engine) EnergyGrad(ctx context.Context, x, grad []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return 0, err
	}
	if err := evaluator.CheckGradStorage(x, grad); err != nil {
		return 0, err
	}
	p := len(gamma)
	w := e.acquireGrad()
	defer e.releaseGrad(w)
	return e.sim.SimulateQAOAGradInto(w, gamma, beta, grad[:p], grad[p:])
}

// Caps reports the engine's evaluation metadata: gradient-capable,
// up to Workers zero-allocation concurrent evaluations, single rank.
func (e *Engine) Caps() evaluator.Caps {
	c := e.sim.Caps()
	c.MaxConcurrent = e.workers
	return c
}

// EvalOutputs serves the measurement-style output contract
// (evaluator.OutputEvaluator) by delegating to the underlying
// simulator; every call owns its buffers, so concurrent calls are
// safe alongside in-flight sweeps.
func (e *Engine) EvalOutputs(ctx context.Context, x []float64, spec evaluator.OutputSpec) (*evaluator.Outputs, error) {
	return e.sim.EvalOutputs(ctx, x, spec)
}

var _ evaluator.OutputEvaluator = (*Engine)(nil)

// StreamSamples serves the chunked sampling contract
// (evaluator.SampleStreamer) by delegating to the underlying
// simulator.
func (e *Engine) StreamSamples(ctx context.Context, x []float64, spec evaluator.OutputSpec, fn func(chunk []uint64) error) error {
	return e.sim.StreamSamples(ctx, x, spec, fn)
}

var _ evaluator.SampleStreamer = (*Engine)(nil)

// Grid builds the p = 1 cartesian product of γ and β values in
// row-major order (β varies fastest): the landscape scans of the
// paper's Figs. 3–4. Index a point as points[i*len(betas)+j] for
// (gammas[i], betas[j]).
func Grid(gammas, betas []float64) []Point {
	points := make([]Point, 0, len(gammas)*len(betas))
	for _, g := range gammas {
		for _, b := range betas {
			points = append(points, Point{Gamma: []float64{g}, Beta: []float64{b}})
		}
	}
	return points
}

// ArgMin returns the index of the lowest-energy result (−1 for an
// empty batch) — the reduction every landscape scan and multi-start
// schedule ends with.
func ArgMin(results []Result) int {
	best := -1
	for i, r := range results {
		if best < 0 || r.Energy < results[best].Energy {
			best = i
		}
	}
	return best
}

// ArgMinEnergies is ArgMin over a bare energy slice — the shape the
// evaluation service's batch requests return.
func ArgMinEnergies(energies []float64) int {
	best := -1
	for i, e := range energies {
		if best < 0 || e < energies[best] {
			best = i
		}
	}
	return best
}
