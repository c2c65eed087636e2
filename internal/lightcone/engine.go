package lightcone

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"qokit/internal/core"
	"qokit/internal/evaluator"
	"qokit/internal/graphs"
	"qokit/internal/problems"
)

// Options configures a light-cone engine.
type Options struct {
	// Radius is the cone radius — the maximum QAOA depth p this engine
	// serves exactly (each Energy/EnergyGrad call may use any p ≤
	// Radius). Required, ≥ 1. Cone sizes grow like d^p, so p ≤ 2 or 3
	// is the practical regime on degree-d graphs.
	Radius int
	// Workers is the fan-out width cone simulations run across (≤ 0
	// means GOMAXPROCS). Each worker owns reusable per-cone-size state
	// buffers; cone simulators themselves run single-threaded so the
	// fan-out never nests kernel pools.
	Workers int
	// Backend selects the core backend for the cone simulators
	// (BackendAuto picks SoA, the fastest).
	Backend core.Backend
	// MaxConeQubits fails construction early if any cone exceeds this
	// many qubits (≤ 0 means 26): a too-deep radius on a dense graph
	// degenerates to full statevector cost, and the error should name
	// the offending edge instead of silently allocating 2^n buffers.
	MaxConeQubits int
}

// coneClass is one isomorphism class of light cones: a representative
// simulator plus the summed weight of its member edges.
type coneClass struct {
	n     int             // cone qubit count
	sim   *core.Simulator // representative cone, MaxCut evolution diagonal
	obs   []float64       // Z_0Z_1 on the root pair (roots are local 0, 1)
	coeff float64         // Σ_{e ∈ class} w_e / 2
	count int             // member edges
}

// Engine evaluates MaxCut QAOA energies and exact gradients by
// light-cone decomposition behind the evaluator contract: sweep,
// serve, qokit.Service, and the optimizers drive it unchanged. It is
// read-only after construction; Energy/EnergyGrad are safe for
// concurrent use (each call draws worker workspaces from a pool).
type Engine struct {
	nVertices  int
	radius     int
	workers    int
	offset     float64 // −W/2, the constant part of the cost
	cones      []*coneClass
	totalEdges int
	maxConeN   int
	fallbacks  int   // cones keyed uniquely after a canon-budget blowout
	stateBytes int64 // Caps cost model: workers × per-workspace buffer bytes

	mu       sync.Mutex
	free     []*workspace // capped at workers
	freeCall []*callBuf   // capped at 2
}

// workspace is one fan-out worker's reusable buffers, keyed by cone
// qubit count — Results and GradBuffers rebind across same-shape cone
// simulators, so one buffer per distinct size serves every class.
type workspace struct {
	res   map[int]*core.Result
	grads map[int]*core.GradBuffers
}

// callBuf is one in-flight evaluation's per-class output storage:
// workers write disjoint slots, and the final reduction sums them in
// class order so the energy is deterministic under any scheduling.
type callBuf struct {
	vals  []float64 // raw ⟨Z_uZ_v⟩ per class
	gflat []float64 // per-class [∂γ|∂β] blocks, 2p each
}

// New builds a light-cone engine for unweighted MaxCut on g.
func New(g graphs.Graph, opts Options) (*Engine, error) {
	return NewWeighted(g.N, graphs.UniformWeights(g, 1), opts)
}

// NewWeighted builds a light-cone engine for weighted MaxCut on n
// vertices. The evaluator's energies match
// core.New(n, problems.WeightedMaxCutTerms(edges), …) exactly
// (including the −W/2 offset) wherever both are feasible.
func NewWeighted(n int, edges []graphs.WeightedEdge, opts Options) (*Engine, error) {
	if opts.Radius < 1 {
		return nil, fmt.Errorf("lightcone: Options.Radius=%d must be ≥ 1 (the maximum QAOA depth p this engine serves)", opts.Radius)
	}
	if n < 2 {
		return nil, fmt.Errorf("lightcone: n=%d must be ≥ 2", n)
	}
	maxCone := opts.MaxConeQubits
	if maxCone <= 0 {
		maxCone = 26
	}
	if maxCone > 34 {
		maxCone = 34 // core's own hard cap
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	norm := make([]graphs.WeightedEdge, len(edges))
	plain := make([]graphs.Edge, len(edges))
	for i, e := range edges {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		norm[i] = e
		plain[i] = graphs.Edge{U: e.U, V: e.V}
	}
	if err := (graphs.Graph{N: n, Edges: plain}).Validate(); err != nil {
		return nil, fmt.Errorf("lightcone: %w", err)
	}
	if len(norm) == 0 {
		return nil, fmt.Errorf("lightcone: graph has no edges")
	}

	e := &Engine{
		nVertices:  n,
		radius:     opts.Radius,
		workers:    workers,
		totalEdges: len(norm),
	}
	ex := newExtractor(n, norm, opts.Radius)
	classes := make(map[string]*coneClass)
	var order []string // first-seen order, for deterministic class list
	for _, ge := range norm {
		e.offset -= ge.Weight / 2
		c := ex.cone(ge.U, ge.V)
		if c.n > maxCone {
			return nil, fmt.Errorf("lightcone: radius-%d cone of edge {%d,%d} has %d qubits > MaxConeQubits=%d (graph too dense for this radius; lower Radius or raise Options.MaxConeQubits)",
				opts.Radius, ge.U, ge.V, c.n, maxCone)
		}
		key, ok := canonicalKey(c)
		if !ok {
			key = uniqueKey(ge.U, ge.V)
			e.fallbacks++
		}
		if cl := classes[key]; cl != nil {
			cl.coeff += ge.Weight / 2
			cl.count++
			continue
		}
		sim, err := core.New(c.n, problems.WeightedMaxCutTerms(c.edges), core.Options{
			Backend: opts.Backend,
			Workers: 1, // parallelism lives in the fan-out, not the kernels
		})
		if err != nil {
			return nil, fmt.Errorf("lightcone: cone of edge {%d,%d}: %w", ge.U, ge.V, err)
		}
		obs := make([]float64, 1<<uint(c.n))
		for x := range obs {
			if (x^(x>>1))&1 == 0 {
				obs[x] = 1 // root bits agree: Z_0Z_1 = +1
			} else {
				obs[x] = -1
			}
		}
		cl := &coneClass{n: c.n, sim: sim, obs: obs, coeff: ge.Weight / 2, count: 1}
		classes[key] = cl
		order = append(order, key)
		if c.n > e.maxConeN {
			e.maxConeN = c.n
		}
	}
	e.cones = make([]*coneClass, len(order))
	sizes := make(map[int]int64)
	for i, key := range order {
		e.cones[i] = classes[key]
		sizes[e.cones[i].n] = 2 * e.cones[i].sim.Caps().StateBytes // ψ and λ
	}
	var perWS int64
	for _, b := range sizes {
		perWS += b
	}
	e.stateBytes = int64(workers) * perWS
	// Largest cones first: the long poles start early, so the fan-out
	// tail is short.
	sort.Slice(e.cones, func(i, j int) bool { return e.cones[i].n > e.cones[j].n })
	return e, nil
}

// Stats reports the decomposition's shape — most usefully the dedup
// hit rate, the fraction of edges served by a previously-simulated
// isomorphism class.
type Stats struct {
	Edges          int     // graph edges = light cones extracted
	UniqueCones    int     // isomorphism classes actually simulated
	HitRate        float64 // 1 − UniqueCones/Edges
	MaxConeQubits  int     // largest cone simulated
	Radius         int
	CanonFallbacks int // cones keyed uniquely after a canon-budget blowout
}

// Stats returns the engine's decomposition statistics.
func (e *Engine) Stats() Stats {
	return Stats{
		Edges:          e.totalEdges,
		UniqueCones:    len(e.cones),
		HitRate:        1 - float64(len(e.cones))/float64(e.totalEdges),
		MaxConeQubits:  e.maxConeN,
		Radius:         e.radius,
		CanonFallbacks: e.fallbacks,
	}
}

// Caps reports the true cost model: state memory scales with the
// largest cone (workers × two buffers per distinct cone size), not
// 2^NumQubits — the entire point of the backend. MaxConcurrent is 1
// because a single evaluation already fans across all workers.
func (e *Engine) Caps() evaluator.Caps {
	return evaluator.Caps{
		NumQubits:     e.nVertices,
		Grad:          true,
		MaxConcurrent: 1,
		Ranks:         1,
		StateBytes:    e.stateBytes,
	}
}

// Energy evaluates E(x) = Σ_e (w_e/2)·⟨Z_uZ_v⟩ − W/2 by simulating one
// cone per isomorphism class. len(x)/2 must be ≤ Options.Radius.
func (e *Engine) Energy(ctx context.Context, x []float64) (float64, error) {
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return 0, err
	}
	if err := e.checkDepth(len(gamma)); err != nil {
		return 0, err
	}
	cb := e.acquireCall(len(gamma), false)
	defer e.releaseCall(cb)
	if err := e.runCones(ctx, gamma, beta, cb, false); err != nil {
		return 0, err
	}
	energy := e.offset
	for i, c := range e.cones {
		energy += c.coeff * cb.vals[i]
	}
	return energy, nil
}

// EnergyGrad evaluates E(x) and its exact gradient: each class runs
// the observable-seeded adjoint reverse pass (∂⟨Z_uZ_v⟩/∂γ_ℓ, ∂β_ℓ on
// the cone), and per-class gradients sum with the same coefficients as
// the energy.
func (e *Engine) EnergyGrad(ctx context.Context, x, grad []float64) (float64, error) {
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return 0, err
	}
	if err := evaluator.CheckGradStorage(x, grad); err != nil {
		return 0, err
	}
	if err := e.checkDepth(len(gamma)); err != nil {
		return 0, err
	}
	p := len(gamma)
	cb := e.acquireCall(p, true)
	defer e.releaseCall(cb)
	if err := e.runCones(ctx, gamma, beta, cb, true); err != nil {
		return 0, err
	}
	energy := e.offset
	for j := range grad {
		grad[j] = 0
	}
	for i, c := range e.cones {
		energy += c.coeff * cb.vals[i]
		blk := cb.gflat[i*2*p : (i+1)*2*p]
		for j, gv := range blk {
			grad[j] += c.coeff * gv
		}
	}
	return energy, nil
}

func (e *Engine) checkDepth(p int) error {
	if p > e.radius {
		return fmt.Errorf("lightcone: depth p=%d exceeds the engine's cone radius %d — light cones are exact only for p ≤ radius (rebuild with Options.Radius ≥ %d)", p, e.radius, p)
	}
	return nil
}

// runCones fans the class list across the worker pool. Workers pull
// classes off a shared atomic counter (largest cones were sorted
// first) and write results into disjoint callBuf slots; each worker
// reuses its workspace's per-size buffers, so a warm evaluation
// allocates no state.
func (e *Engine) runCones(ctx context.Context, gamma, beta []float64, cb *callBuf, withGrad bool) error {
	nw := e.workers
	if nw > len(e.cones) {
		nw = len(e.cones)
	}
	if nw <= 1 {
		// next stays scoped to this branch: sharing one declaration
		// with the goroutine branch below would make it escape (the
		// closures capture its address) and cost one heap allocation
		// per warm call on the inline path.
		var next atomic.Int64
		ws := e.acquireWS()
		defer e.releaseWS(ws)
		return e.coneLoop(ctx, ws, gamma, beta, cb, withGrad, &next)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	for k := 0; k < nw; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := e.acquireWS()
			defer e.releaseWS(ws)
			if err := e.coneLoop(ctx, ws, gamma, beta, cb, withGrad, &next); err != nil {
				firstErr.CompareAndSwap(nil, &err)
			}
		}()
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// coneLoop is one worker's share of an evaluation.
func (e *Engine) coneLoop(ctx context.Context, ws *workspace, gamma, beta []float64, cb *callBuf, withGrad bool, next *atomic.Int64) error {
	p := len(gamma)
	for {
		i := int(next.Add(1)) - 1
		if i >= len(e.cones) {
			return nil
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		c := e.cones[i]
		if withGrad {
			w := ws.grads[c.n]
			if w == nil {
				w = c.sim.NewGradBuffers()
				ws.grads[c.n] = w
			}
			blk := cb.gflat[i*2*p : (i+1)*2*p]
			val, err := c.sim.SimulateQAOAGradObsInto(w, gamma, beta, c.obs, blk[:p], blk[p:])
			if err != nil {
				return err
			}
			cb.vals[i] = val
		} else {
			r := ws.res[c.n]
			if r == nil {
				r = c.sim.NewResult()
				ws.res[c.n] = r
			}
			if err := c.sim.SimulateQAOAInto(r, gamma, beta); err != nil {
				return err
			}
			val, err := r.ExpectationOf(c.obs)
			if err != nil {
				return err
			}
			cb.vals[i] = val
		}
	}
}

func (e *Engine) acquireWS() *workspace {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.free); n > 0 {
		ws := e.free[n-1]
		e.free = e.free[:n-1]
		return ws
	}
	return &workspace{res: make(map[int]*core.Result), grads: make(map[int]*core.GradBuffers)}
}

func (e *Engine) releaseWS(ws *workspace) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.free) < e.workers {
		e.free = append(e.free, ws)
	}
}

func (e *Engine) acquireCall(p int, withGrad bool) *callBuf {
	e.mu.Lock()
	var cb *callBuf
	if n := len(e.freeCall); n > 0 {
		cb = e.freeCall[n-1]
		e.freeCall = e.freeCall[:n-1]
	} else {
		cb = &callBuf{}
	}
	e.mu.Unlock()
	if cap(cb.vals) < len(e.cones) {
		cb.vals = make([]float64, len(e.cones))
	}
	cb.vals = cb.vals[:len(e.cones)]
	if withGrad {
		need := len(e.cones) * 2 * p
		if cap(cb.gflat) < need {
			cb.gflat = make([]float64, need)
		}
		cb.gflat = cb.gflat[:need]
	}
	return cb
}

func (e *Engine) releaseCall(cb *callBuf) {
	e.mu.Lock()
	if len(e.freeCall) < 2 {
		e.freeCall = append(e.freeCall, cb)
	}
	e.mu.Unlock()
}
