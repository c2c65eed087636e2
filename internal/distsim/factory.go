package distsim

import (
	"context"
	"fmt"
	"sync"

	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/poly"
)

// Factory builds distributed gradient engines on demand. The per-rank
// cost slices are materialized once, on the first build, and shared
// read-only across every build, so an elastic pool growing a new engine
// (one rank-group lease each, since builds run Concurrency 1 by
// default) pays for cluster state buffers only, never a second
// precompute. Each rank holds only its 2^(n−h−k) entries, as
// NewGradEngine's ranks do: precomputed from the terms, or cut from a
// source's stored form (a registry entry, whose lease stays held until
// the last retire; the entry holds the same 2^(n−h) entries, as codes
// when they form an exact grid, so no float64 diagonal stays resident
// beside the ranks' slices).
type Factory struct {
	n, k int
	opts Options
	// caps is the Caps of every build, from the group the terms give.
	caps    evaluator.Caps
	terms   poly.Compiled
	acquire core.AcquireFunc

	mu     sync.Mutex
	src    core.DiagSource
	costs  []rankCost
	sym    symmetry
	builds map[*GradEngine]bool
}

var _ evaluator.Factory = (*Factory)(nil)

// NewFactory builds a distributed-engine factory for an n-qubit
// problem given as terms. The ranks precompute their slices lazily on
// the first build, and every build shares them. opts.Concurrency ≤ 0
// means one lease per build (the elastic scheduler's unit of growth).
func NewFactory(n int, terms poly.Terms, opts Options) (*Factory, error) {
	if err := terms.Validate(n); err != nil {
		return nil, err
	}
	return newFactory(n, terms, opts, nil)
}

// NewFactoryFromSource builds a distributed-engine factory whose stored
// cost form, built from the given terms, comes from acquire (typically
// a registry handle); per-rank slices are cut from it, acquired on the
// first build and released after the last retire. The terms fix the
// group the shards store the state over, and so Caps, before the first
// acquire.
func NewFactoryFromSource(n int, terms poly.Terms, opts Options, acquire core.AcquireFunc) (*Factory, error) {
	return newFactory(n, terms, opts, acquire)
}

func newFactory(n int, terms poly.Terms, opts Options, acquire core.AcquireFunc) (*Factory, error) {
	k, err := opts.validateEngine(n)
	if err != nil {
		return nil, err
	}
	if _, err := core.MixerSweepEdges(n, opts.Mixer); err != nil {
		return nil, err
	}
	compiled := poly.Compile(terms)
	pivots, flip := costvec.TermPivots(n, compiled.Masks)
	sym := symmetryFor(pivots, flip, n, k, opts.Mixer)
	return &Factory{
		n: n, k: k, opts: opts,
		caps:    opts.caps(n, sym.pivots()),
		terms:   compiled,
		acquire: acquire,
		sym:     sym,
		builds:  make(map[*GradEngine]bool),
	}, nil
}

// Caps reports per-build metadata: the rank count and the cluster
// state bytes one in-flight evaluation pins (builds default to one
// concurrent evaluation each).
func (f *Factory) Caps() evaluator.Caps { return f.caps }

// shardsLocked materializes the per-rank slices on first use
// (f.mu held).
func (f *Factory) shardsLocked(ctx context.Context) error {
	if f.costs != nil {
		return nil
	}
	if f.acquire == nil {
		costs, err := rankCostsFromTerms(f.terms, f.n, f.k, f.sym)
		f.costs = costs
		return err
	}
	src, err := f.acquire(ctx)
	if err != nil {
		return err
	}
	form := src.Cost()
	if form.N != f.n {
		src.Release()
		return fmt.Errorf("distsim: cost form over %d qubits, want %d", form.N, f.n)
	}
	f.sym = symmetryFor(form.Pivots, form.Flip, f.n, f.k, f.opts.Mixer)
	f.src, f.costs = src, rankCostsFromForm(form, f.k, f.sym)
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
	e, err := newEngine(f.n, f.opts, f.costs, f.sym)
	if err != nil {
		return nil, err
	}
	f.builds[e] = true
	return e, nil
}

// Retire drops one engine (its rank groups and leases become garbage);
// the last retire drops the rank slices and releases the source's
// lease.
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
	if len(f.builds) == 0 {
		if f.src != nil {
			f.src.Release()
		}
		f.src, f.costs = nil, nil
	}
	return nil
}
