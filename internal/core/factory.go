package core

import (
	"context"
	"fmt"
	"sync"

	"qokit/internal/evaluator"
)

// DiagSource leases a problem's precomputed cost diagonal to an
// evaluator factory. internal/registry's Handle implements it; a
// static in-memory diagonal does too (StaticDiag), so factories work
// with or without a registry behind them. Release must be called
// exactly once when the factory is done with the lease; the diagonal
// must not be read afterwards.
type DiagSource interface {
	// Diag returns the float64 cost diagonal (read-only).
	Diag() []float64
	// Release ends the lease.
	Release()
}

// AcquireFunc obtains a diagonal lease; factories call it lazily on
// the first build so registering a problem stays free of precompute.
type AcquireFunc func(ctx context.Context) (DiagSource, error)

// StaticDiag wraps an in-memory diagonal as a never-expiring
// DiagSource, for callers that precomputed (or loaded) the diagonal
// themselves.
func StaticDiag(diag []float64) DiagSource { return &staticDiag{diag: diag} }

type staticDiag struct{ diag []float64 }

func (s *staticDiag) Diag() []float64 { return s.diag }

func (s *staticDiag) Release() {}

// capsFor reports the Caps a Simulator built from (n, opts) will
// advertise, without building one — the up-front cost metadata the
// Factory contract requires.
func capsFor(n int, opts Options) evaluator.Caps {
	backend := opts.Backend
	if backend == BackendAuto {
		backend = BackendSoA
	}
	stateBytes := int64(16) << uint(n)
	if backend == BackendSoA && opts.SinglePrecision {
		stateBytes = 8 << uint(n)
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

// Factory builds workspaces over one shared Simulator whose diagonal it
// leases. Every build is a Workspace over the same read-only Simulator
// (evolution never mutates it), so growing a pool by one build costs
// only that workspace's two state buffers, never a second diagonal. The
// registry acquire, and any precompute behind it, waits for the first
// New; the lease is held until the last build retires.
type Factory struct {
	n       int
	opts    Options
	acquire AcquireFunc

	mu     sync.Mutex
	src    DiagSource
	sim    *Simulator
	builds map[*Workspace]bool
}

var _ evaluator.Factory = (*Factory)(nil)

// NewFactory builds a workspace factory for an n-qubit problem whose
// diagonal comes from acquire.
func NewFactory(n int, opts Options, acquire AcquireFunc) *Factory {
	return &Factory{n: n, opts: opts, acquire: acquire, builds: make(map[*Workspace]bool)}
}

// Caps reports the metadata of the workspaces this factory builds.
func (f *Factory) Caps() evaluator.Caps { return workspaceCaps(capsFor(f.n, f.opts)) }

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
		sim, err := NewFromDiagonal(f.n, src.Diag(), f.opts)
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
