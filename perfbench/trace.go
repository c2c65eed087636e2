package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qokit"
)

// Span is one interval recorded at a layer boundary. Times are
// nanoseconds since the tracer was created. Req is the id of the
// request-unit span the interval belongs to; a root span is its own
// request.
type Span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps every span of a traced pass in memory; write saves them
// once, after the run. Besides spans it tallies the counters read at
// the same boundaries: cluster traffic around distsim evaluator calls
// and the light-cone decomposition of each light-cone build.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []Span
	comm  commTally
	cones qokit.LightConeStats
}

// commTally is cluster counter growth measured around distsim
// evaluator calls. Traffic is summed over ranks; wall is the growth of
// the critical-path CommWall.
type commTally struct {
	wall, span         time.Duration
	bytes, msgs, syncs int64
	rankEvals          int64 // evaluations × ranks
}

func newTracer() *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, 1<<12)}
}

func (t *Tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// Active is a span being recorded. A nil *Tracer hands out nil
// *Actives, whose methods do nothing: the untraced pass runs the same
// code with no spans and no allocations.
type Active struct {
	t *Tracer
	s Span
}

// Begin opens a span under parent (nil for a root span).
func (t *Tracer) Begin(name string, parent *Active) *Active {
	if t == nil {
		return nil
	}
	a := &Active{t: t, s: Span{Name: name, ID: t.ids.Add(1)}}
	if parent != nil {
		a.s.Parent, a.s.Req = parent.s.ID, parent.s.Req
	} else {
		a.s.Req = a.s.ID
	}
	a.s.Start = t.at(time.Now())
	return a
}

// End closes the span and stores it.
func (a *Active) End() {
	if a == nil {
		return
	}
	a.s.End = a.t.at(time.Now())
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// current holds the request span a closed-loop client has in flight.
// The client stores it before each request; the evaluator wrappers
// read it from the context of the call they wrap, which is how a span
// recorded on a service worker finds its request.
type current struct{ a atomic.Pointer[Active] }

type currentKey struct{}

// withCurrent returns a context carrying a fresh request holder, or
// ctx unchanged (and a nil holder) when tr is nil.
func withCurrent(ctx context.Context, tr *Tracer) (context.Context, *current) {
	if tr == nil {
		return ctx, nil
	}
	c := &current{}
	return context.WithValue(ctx, currentKey{}, c), c
}

func (c *current) set(a *Active) {
	if c != nil {
		c.a.Store(a)
	}
}

func currentSpan(ctx context.Context) *Active {
	if c, ok := ctx.Value(currentKey{}).(*current); ok {
		return c.a.Load()
	}
	return nil
}

// write saves the spans as JSON lines.
func (t *Tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes returns each span's duration minus the part of its
// interval its children cover; overlapping children count once and a
// child sticking out of its parent counts only inside it.
func selfTimes(spans []Span) map[int64]time.Duration {
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p Span, kids []Span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	for i, v := range iv {
		if i == 0 || v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
		} else if v[1] > hi {
			hi = v[1]
		}
	}
	return time.Duration(total + hi - lo)
}

// stack builds the evaluation service a session talks to.
type stack interface {
	service(reg *qokit.ProblemRegistry, key qokit.ProblemKey, opts qokit.RegistryServiceOptions, owner *Active) (*qokit.Service, error)
}

// facadeStack is the untraced path: exactly NewRegistryService.
type facadeStack struct{}

func (facadeStack) service(reg *qokit.ProblemRegistry, key qokit.ProblemKey, opts qokit.RegistryServiceOptions, _ *Active) (*qokit.Service, error) {
	return qokit.NewRegistryService(reg, key, opts)
}

// tracedStack composes the stack NewRegistryService builds — one
// factory chosen by the options, in an elastic service with the same
// ElasticOptions — from the public factory constructors, and wraps the
// factory so that every build, retire and evaluator call is a span.
type tracedStack struct{ tr *Tracer }

func (s tracedStack) service(reg *qokit.ProblemRegistry, key qokit.ProblemKey, opts qokit.RegistryServiceOptions, owner *Active) (*qokit.Service, error) {
	var f qokit.EvaluatorFactory
	var err error
	kind := "core"
	switch {
	case opts.Distributed != nil:
		kind = "distsim"
		f, err = qokit.NewDistributedFactory(reg, key, *opts.Distributed)
	case opts.LightCone != nil:
		// Cone extraction and canonicalization run here, once per
		// factory; the factory's builds all share the engine.
		kind = "lightcone"
		b := s.tr.Begin("lightcone.build", owner)
		f, err = qokit.NewLightConeFactory(reg, key, *opts.LightCone)
		b.End()
		if le, ok := f.(interface {
			Engine() *qokit.LightConeSimulator
		}); ok && err == nil {
			s.tr.mu.Lock()
			s.tr.cones = le.Engine().Stats()
			s.tr.mu.Unlock()
		}
	default:
		f, err = qokit.NewSweepFactory(reg, key, opts.Simulator, opts.WorkersPerBuild)
	}
	if err != nil {
		return nil, err
	}
	tf := &tracedFactory{inner: f, tr: s.tr, owner: owner, kind: kind}
	return qokit.NewElasticService([]qokit.EvaluatorFactory{tf}, opts.Elastic)
}

// tracedFactory records a span around each New and Retire and wraps
// each evaluator it builds.
type tracedFactory struct {
	inner qokit.EvaluatorFactory
	tr    *Tracer
	owner *Active // the session or set-up the service belongs to
	kind  string  // core, distsim or lightcone
}

func (f *tracedFactory) Caps() qokit.EvaluatorCaps { return f.inner.Caps() }

func (f *tracedFactory) New(ctx context.Context) (qokit.Evaluator, error) {
	a := f.tr.Begin("serve.build", f.owner)
	ev, err := f.inner.New(ctx)
	a.End()
	if err != nil {
		return nil, err
	}
	te := &tracedEval{inner: ev, tr: f.tr, prefix: "evaluator." + f.kind + "."}
	te.dist, _ = ev.(*qokit.DistributedGradEngine)
	return te, nil
}

func (f *tracedFactory) Retire(ev qokit.Evaluator) error {
	te, ok := ev.(*tracedEval)
	if !ok {
		return fmt.Errorf("perfbench: retire of an evaluator the traced factory did not build: %T", ev)
	}
	a := f.tr.Begin("serve.retire", f.owner)
	err := f.inner.Retire(te.inner)
	a.End()
	return err
}

// tracedEval records a span named evaluator.<kind>.<method> around each
// call, under the request span the call's context carries. Around
// distsim calls it also reads the engine's cluster counters.
type tracedEval struct {
	inner  qokit.Evaluator
	tr     *Tracer
	prefix string
	dist   *qokit.DistributedGradEngine
}

func (e *tracedEval) Caps() qokit.EvaluatorCaps { return e.inner.Caps() }

func (e *tracedEval) call(ctx context.Context, method string, f func() error) error {
	var before qokit.CommCounters
	if e.dist != nil {
		before = e.dist.Counters()
	}
	a := e.tr.Begin(e.prefix+method, currentSpan(ctx))
	err := f()
	a.End()
	if e.dist != nil {
		after := e.dist.Counters()
		e.tr.mu.Lock()
		c := &e.tr.comm
		c.wall += after.CommWall - before.CommWall
		c.span += a.s.dur()
		c.bytes += after.BytesSent - before.BytesSent
		c.msgs += after.Messages - before.Messages
		c.syncs += after.Syncs - before.Syncs
		c.rankEvals += int64(e.dist.Ranks())
		e.tr.mu.Unlock()
	}
	return err
}

func (e *tracedEval) Energy(ctx context.Context, x []float64) (v float64, err error) {
	err = e.call(ctx, "energy", func() error {
		v, err = e.inner.Energy(ctx, x)
		return err
	})
	return v, err
}

func (e *tracedEval) EnergyGrad(ctx context.Context, x, g []float64) (v float64, err error) {
	err = e.call(ctx, "grad", func() error {
		v, err = e.inner.EnergyGrad(ctx, x, g)
		return err
	})
	return v, err
}

func (e *tracedEval) EvalOutputs(ctx context.Context, x []float64, spec qokit.OutputSpec) (out *qokit.EvalOutputs, err error) {
	oe, ok := e.inner.(qokit.OutputEvaluator)
	if !ok {
		return nil, fmt.Errorf("perfbench: %T has no outputs", e.inner)
	}
	err = e.call(ctx, "outputs", func() error {
		out, err = oe.EvalOutputs(ctx, x, spec)
		return err
	})
	return out, err
}

func (e *tracedEval) StreamSamples(ctx context.Context, x []float64, spec qokit.OutputSpec, fn func(chunk []uint64) error) error {
	ss, ok := e.inner.(qokit.SampleStreamer)
	if !ok {
		return fmt.Errorf("perfbench: %T does not stream samples", e.inner)
	}
	return e.call(ctx, "stream", func() error { return ss.StreamSamples(ctx, x, spec, fn) })
}
