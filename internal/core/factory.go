package core

import (
	"context"
	"fmt"
	"sync"

	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/poly"
)

// DiagSource leases a problem's cost diagonal, in its stored form, to
// an evaluator factory. internal/registry's Handle implements it; an
// in-memory diagonal does too (StaticDiag), so factories work with or
// without a registry behind them. Release must be called exactly once
// when the factory is done with the lease; the form must not be read
// afterwards.
type DiagSource interface {
	// Cost returns the stored cost form (read-only).
	Cost() *costvec.Stored
	// Release ends the lease.
	Release()
}

// AcquireFunc obtains a diagonal lease; factories call it lazily on
// the first build so registering a problem stays free of precompute.
type AcquireFunc func(ctx context.Context) (DiagSource, error)

// StaticDiag wraps an in-memory 2^n diagonal that has no terms
// (QOKit's costs path) as a never-expiring DiagSource. It scans the
// diagonal once, as NewFromDiagonal does — a NaN or ±Inf entry returns
// an error wrapping poly.ErrNonFiniteCost — searches its symmetry group
// (costvec.SymmetryPivots) and converts it to the stored form.
func StaticDiag(diag []float64) (DiagSource, error) {
	flip, err := costvec.CheckDiagonal(diag)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return staticDiag{costvec.FromDiagonal(diag, costvec.SymmetryPivots(diag, flip), flip)}, nil
}

type staticDiag struct{ cost *costvec.Stored }

func (s staticDiag) Cost() *costvec.Stored { return s.cost }

func (staticDiag) Release() {}

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
// terms under opts stores its states over: the term group's
// (costvec.TermPivots) on a group state, else 0. It reads the terms
// only, so it runs before any precompute.
func storedPivots(n int, terms poly.Terms, opts Options) int {
	backend, _, err := resolveBackend(opts)
	if err != nil || !groupState(backend, opts) {
		return 0
	}
	pivots, _ := costvec.TermPivots(n, poly.Compile(terms).Masks)
	return len(pivots)
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
		sim, err := newFromCost(f.n, src.Cost(), f.opts)
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
