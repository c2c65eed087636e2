// Elastic scheduling: the Service's worker pool grows and shrinks from
// observed queue depth. Each worker builds its own evaluator from an
// evaluator.Factory descriptor — so the pool can pack heterogeneous
// capacity (float64/float32 workspaces, sharded rank groups,
// light-cone fan-outs) against one memory budget using each factory's
// up-front Caps().StateBytes cost metadata — and retires it back to its
// factory after sitting idle, returning state-vector-scale memory.
//
// Every service runs this one worker loop and this one pop. Scale-up
// happens at push time (a queued task with no idle worker spawns one,
// up to MaxWorkers and the budget); scale-down happens at pop time (a
// worker above the MinWorkers floor that stays idle past IdleDecay
// exits and retires its evaluator). New's pool of caller-built
// evaluators is the degenerate case: its workers start with their
// evaluators, and MinWorkers == MaxWorkers, so neither path ever fires.
package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"qokit/internal/evaluator"
)

// ElasticOptions configures an elastic service. The zero value gives a
// pool with floor 1, a ceiling of one worker per factory, no memory
// budget, and a 100 ms idle decay.
type ElasticOptions struct {
	// MinWorkers is the pool floor (≤ 0 means 1): that many workers
	// start immediately and never decay, so the degenerate
	// MinWorkers == MaxWorkers configuration is a fixed pool.
	MinWorkers int
	// MaxWorkers caps growth (≤ 0 means one worker per factory). Each
	// worker holds one build, so this also caps the builds.
	MaxWorkers int
	// MemoryBudget bounds the summed Caps().StateBytes of built
	// evaluators (0 = unlimited). Growth that would exceed it does not
	// happen; the first build is always allowed so the floor can serve.
	MemoryBudget int64
	// ScaleThreshold is the unserved backlog (queued tasks minus idle
	// workers) that triggers one spawn at push time (≤ 0 means 1).
	ScaleThreshold int
	// IdleDecay is how long a worker above the floor stays parked on an
	// empty queue before exiting (≤ 0 means 100 ms).
	IdleDecay time.Duration
}

func (o ElasticOptions) withDefaults() ElasticOptions {
	if o.MinWorkers <= 0 {
		o.MinWorkers = 1
	}
	if o.ScaleThreshold <= 0 {
		o.ScaleThreshold = 1
	}
	if o.IdleDecay <= 0 {
		o.IdleDecay = 100 * time.Millisecond
	}
	return o
}

// elastic is the scale state hanging off a Service. All fields are
// guarded by Service.mu except opts and slots, which are immutable
// after construction.
type elastic struct {
	opts  ElasticOptions
	slots []*factorySlot

	live      int   // workers running or starting
	idle      int   // workers parked waiting for tasks
	peak      int   // high-water mark of live
	usedBytes int64 // Σ StateBytes of current and in-flight builds
	builds    int   // builds charged to usedBytes, current or in flight
}

// factorySlot is one factory and the Caps of its builds.
type factorySlot struct {
	f    evaluator.Factory
	caps evaluator.Caps
}

// NewElastic builds an autoscaled service over evaluator factories and
// starts its floor workers. All factories must be bound to the same
// qubit count; the aggregate Caps reports Grad/Outputs/Streaming only
// when every factory's builds support them, and StateBytes as the
// memory bound (the budget when set, else the worst-case packing).
func NewElastic(factories []evaluator.Factory, opts ElasticOptions) (*Service, error) {
	if len(factories) == 0 {
		return nil, fmt.Errorf("serve: no factories")
	}
	for i, f := range factories {
		if f == nil {
			return nil, fmt.Errorf("serve: factory %d is nil", i)
		}
	}
	opts = opts.withDefaults()
	var slots []*factorySlot
	caps := factories[0].Caps()
	caps.StateBytes = 0
	var maxBuild int64
	for i, f := range factories {
		c := f.Caps()
		if c.NumQubits != caps.NumQubits {
			return nil, fmt.Errorf("serve: factory %d is bound to n=%d, factory 0 to n=%d",
				i, c.NumQubits, caps.NumQubits)
		}
		caps.Grad = caps.Grad && c.Grad
		caps.Outputs = caps.Outputs && c.Outputs
		caps.Streaming = caps.Streaming && c.Streaming
		if c.Ranks > caps.Ranks {
			caps.Ranks = c.Ranks
		}
		if c.StateBytes > maxBuild {
			maxBuild = c.StateBytes
		}
		slots = append(slots, &factorySlot{f: f, caps: c})
	}
	if opts.MaxWorkers <= 0 {
		opts.MaxWorkers = len(factories)
	}
	if opts.MaxWorkers < opts.MinWorkers {
		opts.MaxWorkers = opts.MinWorkers
	}
	if opts.MemoryBudget > 0 {
		caps.StateBytes = opts.MemoryBudget
	} else {
		caps.StateBytes = int64(opts.MaxWorkers) * maxBuild
	}
	s := newService(caps, opts, slots)
	for i := 0; i < opts.MinWorkers; i++ {
		s.wg.Add(1)
		go s.worker(nil, nil)
	}
	return s, nil
}

// newService builds a service with MinWorkers workers counted live; the
// caller starts them.
func newService(caps evaluator.Caps, opts ElasticOptions, slots []*factorySlot) *Service {
	opts = opts.withDefaults()
	s := &Service{caps: caps}
	s.el = &elastic{opts: opts, slots: slots, live: opts.MinWorkers, peak: opts.MinWorkers}
	s.cond = sync.NewCond(&s.mu)
	s.taskPool.New = func() interface{} {
		return &task{done: make(chan struct{}, 1)}
	}
	return s
}

// LiveWorkers reports the current worker count (including workers
// still building an evaluator); for a pool built by New it equals
// Workers().
func (s *Service) LiveWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.el.live
}

// PeakWorkers reports the pool's high-water mark (Workers() for a pool
// built by New).
func (s *Service) PeakWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.el.peak
}

// maybeGrowLocked spawns one worker when the unserved backlog crosses
// the threshold (s.mu held, called from push). The worker builds its
// evaluator on its own goroutine, so a slow first build never blocks
// the submitter.
func (s *Service) maybeGrowLocked() {
	el := s.el
	backlog := len(s.queue) - s.head - el.idle
	if backlog < el.opts.ScaleThreshold || el.live >= el.opts.MaxWorkers {
		return
	}
	el.live++
	if el.live > el.peak {
		el.peak = el.live
	}
	s.wg.Add(1)
	go s.worker(nil, nil)
}

// worker serves tasks against one evaluator until close or idle decay.
// A worker of New's pool starts with its caller-built evaluator (slot
// nil), which stays the caller's; an elastic worker (ev nil) first
// builds its own and retires it when it exits. A worker calls its
// evaluator alone unless the caller listed it more than once, so a
// workspace's buffers stay warm and the warm path never allocates
// states.
func (s *Service) worker(slot *factorySlot, ev evaluator.Evaluator) {
	defer s.wg.Done()
	if ev == nil {
		if slot, ev = s.build(); ev == nil {
			return
		}
	}
	for {
		t := s.pop()
		if t == nil {
			break
		}
		s.serveTask(ev, t)
	}
	if slot != nil {
		s.retire(slot, ev)
	}
}

// build makes the calling worker an evaluator from the cheapest factory
// that fits the remaining memory budget. A nil evaluator means the
// worker could not be supplied (budget exhausted, or the factory
// failed) and has already been discounted from live.
func (s *Service) build() (*factorySlot, evaluator.Evaluator) {
	s.mu.Lock()
	el := s.el
	// Pick the cheapest factory fitting the budget. The first build
	// ever is exempt so a too-small budget degrades to one evaluator
	// instead of a pool that can serve nothing. A build still in New
	// already holds its charge, so it counts as existing: cold builds
	// racing the first one do not all claim the exemption.
	var slot *factorySlot
	for _, cand := range el.slots {
		if el.builds > 0 && el.opts.MemoryBudget > 0 && el.usedBytes+cand.caps.StateBytes > el.opts.MemoryBudget {
			continue
		}
		if slot == nil || cand.caps.StateBytes < slot.caps.StateBytes {
			slot = cand
		}
	}
	if slot == nil {
		el.live--
		s.mu.Unlock()
		return nil, nil
	}
	// Charge the budget while building so concurrent builds cannot
	// collectively overshoot it.
	el.usedBytes += slot.caps.StateBytes
	el.builds++
	s.mu.Unlock()

	ev, err := slot.f.New(context.Background())
	if err == nil {
		return slot, ev
	}
	s.mu.Lock()
	el.usedBytes -= slot.caps.StateBytes
	el.builds--
	el.live--
	var stranded []*task
	if el.live == 0 {
		// No worker will ever serve the queue; fail it loudly rather
		// than hanging submitters.
		stranded = append(stranded, s.queue[s.head:]...)
		s.queue = s.queue[:0]
		s.head = 0
	}
	s.mu.Unlock()
	for _, t := range stranded {
		s.finish(t, 0, fmt.Errorf("serve: elastic pool has no workers: %w", err))
	}
	return nil, nil
}

// retire returns an exiting worker's evaluator to its factory and its
// charge to the budget.
func (s *Service) retire(slot *factorySlot, ev evaluator.Evaluator) {
	s.mu.Lock()
	s.el.usedBytes -= slot.caps.StateBytes
	s.el.builds--
	s.mu.Unlock()
	// Best-effort: a retire error has no caller to surface to.
	_ = slot.f.Retire(ev)
}

// pop blocks for the oldest live task; nil means the service closed or,
// for a worker above the floor whose wait outlives IdleDecay, that the
// worker should exit. Floor workers wait untimed — the steady-state
// path arms no timers and allocates nothing. Tasks whose context is
// already cancelled are settled here with the cancellation error and
// never returned: a queue full of dead requests costs the popping
// worker a scan, not one worker occupancy per corpse — the request
// behind them starts immediately.
func (s *Service) pop() *task {
	el := s.el
	for {
		s.mu.Lock()
		var decay *time.Timer
		expired := false
		for !s.closed && s.head == len(s.queue) {
			if expired {
				if el.live > el.opts.MinWorkers {
					el.live--
					s.mu.Unlock()
					return nil
				}
				// The pool shrank to the floor while this worker's timer
				// ran: it is now a floor worker and parks untimed.
				expired = false
				decay = nil
			}
			if decay == nil && el.live > el.opts.MinWorkers {
				decay = time.AfterFunc(el.opts.IdleDecay, func() {
					s.mu.Lock()
					expired = true
					s.mu.Unlock()
					s.cond.Broadcast()
				})
			}
			el.idle++
			s.cond.Wait()
			el.idle--
		}
		if decay != nil {
			decay.Stop()
		}
		if s.head == len(s.queue) {
			s.mu.Unlock()
			return nil // closed
		}
		t := s.queue[s.head]
		s.queue[s.head] = nil
		s.head++
		if s.head == len(s.queue) {
			// Drained: rewind so the backing array is reused, keeping the
			// steady-state queue allocation-free.
			s.queue = s.queue[:0]
			s.head = 0
		}
		s.mu.Unlock()
		if err := t.ctx.Err(); err != nil {
			s.finish(t, 0, err)
			continue
		}
		return t
	}
}
