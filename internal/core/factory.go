package core

import (
	"context"
	"fmt"
	"sync"

	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/poly"
	"qokit/internal/shard"
)

// DiagSource leases a problem's cost diagonal, in its stored form, to
// an evaluator factory; internal/registry's Handle implements it.
// Release must be called exactly once when the factory is done with the
// lease; the form must not be read afterwards.
type DiagSource interface {
	// Cost returns the stored cost form (read-only).
	Cost() *costvec.Stored
	// Release ends the lease.
	Release()
}

// AcquireFunc obtains a diagonal lease; factories call it lazily on
// the first build so registering a problem stays free of precompute.
type AcquireFunc func(ctx context.Context) (DiagSource, error)

// capsFor reports the Caps a Simulator built under opts with its state
// stored over h pivots advertises, without building one — the up-front
// cost metadata the Factory contract requires.
func capsFor(n, h int, opts Options) evaluator.Caps {
	stateBytes := int64(16) << uint(n-h)
	if opts.SinglePrecision {
		stateBytes /= 2
	}
	return evaluator.Caps{
		NumQubits:  n,
		Grad:       true,
		Ranks:      1,
		StateBytes: stateBytes,
		Outputs:    true,
		Streaming:  true,
	}
}

// storedPivots returns the number of pivots a simulator built from
// terms under opts stores its states over (costvec.TermPivots, then
// shard.SymmetryFor at k = 0). It reads the terms only, so it runs
// before any precompute.
func storedPivots(n int, terms poly.Terms, opts Options) int {
	backend, _, err := resolveBackend(opts)
	if err != nil {
		return 0
	}
	pivots, flip := costvec.TermPivots(n, poly.Compile(terms).Masks)
	return len(shard.SymmetryFor(pivots, flip, n, 0, groupState(backend, opts)).Pivots)
}

// Factory builds workspaces over one shared Simulator whose diagonal it
// leases. Every build is a Workspace over the same read-only Simulator
// (evolution never mutates it), so growing a pool by one build costs
// only that workspace's two state buffers, never a second diagonal. The
// registry acquire, and any precompute behind it, waits for the first
// New; the lease is held until the last build retires.
type Factory struct {
	n, h    int
	opts    Options
	acquire AcquireFunc

	mu     sync.Mutex
	src    DiagSource
	sim    *Simulator
	builds map[*Workspace]bool
}

var _ evaluator.Factory = (*Factory)(nil)

// NewFactory builds a workspace factory for an n-qubit problem with
// the given terms whose stored cost form comes from acquire (built from
// the same terms). The terms fix the stored state, and so Caps, before
// the first acquire.
func NewFactory(n int, terms poly.Terms, opts Options, acquire AcquireFunc) *Factory {
	return &Factory{n: n, h: storedPivots(n, terms, opts), opts: opts, acquire: acquire, builds: make(map[*Workspace]bool)}
}

// Caps reports the metadata of the workspaces this factory builds.
func (f *Factory) Caps() evaluator.Caps { return workspaceCaps(capsFor(f.n, f.h, f.opts)) }

// New returns a workspace over the shared simulator, building the
// simulator (and acquiring the diagonal lease) on first use.
func (f *Factory) New(ctx context.Context) (evaluator.Evaluator, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.builds) == 0 {
		src, err := f.acquire(ctx)
		if err != nil {
			return nil, err
		}
		sim, err := newSimulator(f.n, src.Cost(), f.opts)
		if err != nil {
			src.Release()
			return nil, err
		}
		f.src, f.sim = src, sim
	}
	w := f.sim.NewWorkspace()
	f.builds[w] = true
	return w, nil
}

// Retire releases one build; the last retire drops the diagonal lease.
func (f *Factory) Retire(ev evaluator.Evaluator) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := ev.(*Workspace)
	if !ok || !f.builds[w] {
		return fmt.Errorf("core: Retire of an evaluator this factory did not build (%T)", ev)
	}
	delete(f.builds, w)
	if len(f.builds) == 0 {
		f.src.Release()
		f.src, f.sim = nil, nil
	}
	return nil
}
