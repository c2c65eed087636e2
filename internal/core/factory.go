package core

import (
	"context"
	"fmt"
	"sync"

	"qokit/internal/costvec"
	"qokit/internal/evaluator"
)

// DiagSource leases a problem's precomputed cost diagonal to an
// evaluator factory. internal/registry's Handle implements it; a
// static in-memory diagonal does too (StaticDiag), so factories work
// with or without a registry behind them. Release must be called
// exactly once when the factory is done with the lease; the slices
// must not be read afterwards.
type DiagSource interface {
	// Diag returns the float64 cost diagonal (read-only).
	Diag() []float64
	// Quantized returns the uint16-quantized form, building it on
	// first use.
	Quantized() (*costvec.Quantized, error)
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

type staticDiag struct {
	mu    sync.Mutex
	diag  []float64
	quant *costvec.Quantized
}

func (s *staticDiag) Diag() []float64 { return s.diag }

func (s *staticDiag) Quantized() (*costvec.Quantized, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quant == nil {
		q, err := costvec.QuantizeAuto(s.diag)
		if err != nil {
			return nil, err
		}
		s.quant = q
	}
	return s.quant, nil
}

func (s *staticDiag) Release() {}

// CapsFor reports the Caps a Simulator built from (n, opts) will
// advertise, without building one — the up-front cost metadata the
// Factory contract requires.
func CapsFor(n int, opts Options) evaluator.Caps {
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

// Factory builds core Simulators over a leased diagonal. All builds
// share one read-only Simulator (evolution never mutates it), so the
// factory refcounts New/Retire pairs and holds the diagonal lease from
// the first build to the last retire. The registry acquire — and any
// precompute behind it — is deferred to the first New.
type Factory struct {
	n       int
	opts    Options
	acquire AcquireFunc

	mu   sync.Mutex
	src  DiagSource
	sim  *Simulator
	refs int
}

var _ evaluator.Factory = (*Factory)(nil)

// NewFactory builds a simulator factory for an n-qubit problem whose
// diagonal comes from acquire.
func NewFactory(n int, opts Options, acquire AcquireFunc) *Factory {
	return &Factory{n: n, opts: opts, acquire: acquire}
}

// Caps reports the metadata of the simulators this factory builds.
func (f *Factory) Caps() evaluator.Caps { return CapsFor(f.n, f.opts) }

// New returns the shared simulator, building it (and acquiring the
// diagonal lease) on first use.
func (f *Factory) New(ctx context.Context) (evaluator.Evaluator, error) {
	sim, err := f.NewSimulator(ctx)
	if err != nil {
		return nil, err
	}
	return sim, nil
}

// NewSimulator is New with the concrete simulator type, for the
// engine factories (sweep, grad) that wrap it.
func (f *Factory) NewSimulator(ctx context.Context) (*Simulator, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refs == 0 {
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
	f.refs++
	return f.sim, nil
}

// Retire releases one build; the last retire drops the diagonal lease.
func (f *Factory) Retire(ev evaluator.Evaluator) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refs == 0 {
		return fmt.Errorf("core: Retire with no outstanding builds")
	}
	if sim, ok := ev.(*Simulator); !ok || sim != f.sim {
		return fmt.Errorf("core: Retire of an evaluator this factory did not build")
	}
	f.refs--
	if f.refs == 0 {
		f.src.Release()
		f.src, f.sim = nil, nil
	}
	return nil
}
