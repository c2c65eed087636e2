package distsim

import (
	"context"
	"fmt"
	"sync"

	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/poly"
	"qokit/internal/statevec"
)

// Factory builds distributed gradient engines on demand. The per-rank
// diagonal shards are materialized once — sliced out of one shared
// full diagonal lease, scanned for non-finite entries and for each
// slice's phase-table grid — and shared read-only across every build,
// so an elastic pool growing a new engine (one rank-group lease each,
// since builds run Concurrency 1 by default) pays for cluster state
// buffers only, never a second precompute. A quantized factory slices
// one full-diagonal quantization, which is globally consistent across
// ranks by construction — no agreement collective needed.
type Factory struct {
	n       int
	opts    Options
	acquire core.AcquireFunc

	mu     sync.Mutex
	src    core.DiagSource
	costs  []rankCost
	builds map[*GradEngine]bool
}

var _ evaluator.Factory = (*Factory)(nil)

// NewFactory builds a distributed-engine factory for an n-qubit
// problem given as terms. The diagonal is precomputed lazily on the
// first build and shared across builds. opts.Concurrency ≤ 0 means
// one lease per build (the elastic scheduler's unit of growth).
func NewFactory(n int, terms poly.Terms, opts Options) (*Factory, error) {
	if err := terms.Validate(n); err != nil {
		return nil, err
	}
	compiled := poly.Compile(terms)
	return NewFactoryFromSource(n, opts, func(ctx context.Context) (core.DiagSource, error) {
		return core.StaticDiag(costvec.PrecomputePool(statevec.NewPool(0), compiled, n)), nil
	})
}

// NewFactoryFromSource builds a distributed-engine factory whose full
// diagonal comes from acquire (typically a registry handle); per-rank
// shards are slices of it, acquired on the first build and released
// after the last retire.
func NewFactoryFromSource(n int, opts Options, acquire core.AcquireFunc) (*Factory, error) {
	if _, err := opts.validate(n); err != nil {
		return nil, err
	}
	if _, err := core.MixerSweepEdges(n, opts.Mixer); err != nil {
		return nil, err
	}
	return &Factory{n: n, opts: opts, acquire: acquire, builds: make(map[*GradEngine]bool)}, nil
}

// Caps reports per-build metadata: the rank count and the cluster
// state bytes one in-flight evaluation pins (builds default to one
// concurrent evaluation each).
func (f *Factory) Caps() evaluator.Caps { return f.opts.caps(f.n) }

// shardsLocked materializes the per-rank shards on first use
// (f.mu held).
func (f *Factory) shardsLocked(ctx context.Context) error {
	if f.costs != nil {
		return nil
	}
	src, err := f.acquire(ctx)
	if err != nil {
		return err
	}
	k, _ := f.opts.validate(f.n) // validated at construction
	localSize := 1 << uint(f.n-k)
	full := src.Diag()
	diags := make([][]float64, f.opts.Ranks)
	for r := range diags {
		diags[r] = full[r*localSize : (r+1)*localSize]
	}
	if err := checkFinite(diags); err != nil {
		src.Release()
		return err
	}
	var quants []*costvec.Quantized
	if f.opts.Quantize {
		var q *costvec.Quantized
		if f.opts.QuantScale > 0 {
			q, err = costvec.Quantize(full, f.opts.QuantScale)
		} else {
			q, err = src.Quantized()
		}
		if err != nil {
			src.Release()
			return fmt.Errorf("distsim: quantizing shared diagonal: %w", err)
		}
		quants = make([]*costvec.Quantized, f.opts.Ranks)
		for r := range quants {
			quants[r] = &costvec.Quantized{
				Codes: q.Codes[r*localSize : (r+1)*localSize],
				Min:   q.Min,
				Scale: q.Scale,
			}
		}
	}
	f.src, f.costs = src, rankCosts(diags, quants)
	return nil
}

// New builds one engine over the shared shards.
func (f *Factory) New(ctx context.Context) (evaluator.Evaluator, error) {
	e, err := f.NewGradEngine(ctx)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// NewGradEngine is New with the concrete engine type.
func (f *Factory) NewGradEngine(ctx context.Context) (*GradEngine, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.shardsLocked(ctx); err != nil {
		return nil, err
	}
	e, err := newEngine(f.n, f.opts, f.costs)
	if err != nil {
		return nil, err
	}
	f.builds[e] = true
	return e, nil
}

// Retire drops one engine (its rank groups and leases become garbage);
// the last retire releases the diagonal lease.
func (f *Factory) Retire(ev evaluator.Evaluator) error {
	eng, ok := ev.(*GradEngine)
	if !ok {
		return fmt.Errorf("distsim: Retire of a non-distsim evaluator %T", ev)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.builds[eng] {
		return fmt.Errorf("distsim: Retire of an engine this factory did not build")
	}
	delete(f.builds, eng)
	if len(f.builds) == 0 && f.src != nil {
		f.src.Release()
		f.src, f.costs = nil, nil
	}
	return nil
}
