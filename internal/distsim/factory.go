package distsim

import (
	"context"
	"fmt"
	"sync"

	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/poly"
	"qokit/internal/shard"
)

// Factory builds distributed gradient engines on demand. The shard
// engine — the group and one stored cost form the ranks window — is
// built once, on the first build, and shared read-only across every
// build, so an elastic pool growing a new engine (one rank-group lease
// each) pays for cluster state buffers only, never a second
// precompute. The form is a source's (a registry entry, whose lease
// stays held until the last retire): when the entry stores the cost
// over the shards' group, as the term group under the x mixer does
// wherever the ranks can hold it, the ranks read the entry's codes or
// entries in place and the engine holds no cost data of its own.
type Factory struct {
	n, k int
	opts Options
	// caps is the Caps of every build, from the group the terms give.
	caps    evaluator.Caps
	acquire core.AcquireFunc

	mu     sync.Mutex
	src    core.DiagSource
	eng    *shard.Engine
	sym    shard.Symmetry
	builds map[*GradEngine]bool
}

var _ evaluator.Factory = (*Factory)(nil)

// NewFactoryFromSource builds a distributed-engine factory whose stored
// cost form, built from the given terms, comes from acquire (typically
// a registry handle); the ranks window it, acquired on the first build
// and released after the last retire. The terms fix the
// group the shards store the state over, and so Caps, before the first
// acquire.
func NewFactoryFromSource(n int, terms poly.Terms, opts Options, acquire core.AcquireFunc) (*Factory, error) {
	k, err := opts.validateEngine(n)
	if err != nil {
		return nil, err
	}
	if _, err := core.MixerSweepEdges(n, opts.Mixer); err != nil {
		return nil, err
	}
	pivots, flip := costvec.TermPivots(n, poly.Compile(terms).Masks)
	sym := shard.SymmetryFor(pivots, flip, n, k, opts.Mixer == core.MixerX)
	return &Factory{
		n: n, k: k, opts: opts,
		caps:    opts.caps(n, len(sym.Pivots)),
		acquire: acquire,
		sym:     sym,
		builds:  make(map[*GradEngine]bool),
	}, nil
}

// Caps reports per-build metadata: the rank count and the cluster
// state bytes one build's lease pins.
func (f *Factory) Caps() evaluator.Caps { return f.caps }

// shardsLocked builds the shard engine on first use (f.mu held).
func (f *Factory) shardsLocked(ctx context.Context) error {
	if f.eng != nil {
		return nil
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
	f.sym = shard.SymmetryFor(form.Pivots, form.Flip, f.n, f.k, f.opts.Mixer == core.MixerX)
	if f.eng, err = shardEngine(f.n, f.opts, f.sym, form); err != nil {
		src.Release()
		return err
	}
	f.src = src
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
	e, err := newEngine(f.n, f.opts, f.eng)
	if err != nil {
		return nil, err
	}
	f.builds[e] = true
	return e, nil
}

// Retire drops one engine (its rank group and lease become garbage);
// the last retire drops the shard engine and releases the source's
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
		f.src, f.eng = nil, nil
	}
	return nil
}
