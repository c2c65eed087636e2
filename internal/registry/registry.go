// Package registry decouples problem definition from evaluator
// construction: callers register a problem once (terms + qubit count +
// mixer family) and get back a canonical key; every evaluator factory
// then acquires the problem's cost diagonal, in the stored form its
// engines evolve over (costvec.Stored), from a byte-budgeted LRU cache
// instead of re-building it per construction. A second EvalBatch for
// the same graph therefore performs zero diagonal-precompute work,
// which is the property the registry_cache_hit bench row gates.
//
// An entry holds the pivots of the cost's symmetry group and the
// entries at the 2^(n−h) indices a state stored over it keeps, as
// uint16 codes when they form an exact grid: the term group under the
// x mixer (costvec.TermPivots, read off the terms before any entry
// exists), the full diagonal (h = 0) under the xy mixers. A LABS entry
// under the x mixer holds 2 B per entry over 2^(n−2) indices, 1/16 of
// a float64 diagonal.
//
// Entries are refcounted: eviction under budget pressure removes an
// entry from the LRU immediately, but its cost data is only reclaimed
// once the last in-flight acquisition releases it, so an evaluation
// that is mid-sweep when its problem is evicted keeps reading valid
// data. An acquire that arrives while an evicted entry is still
// pinned resurrects it instead of recomputing.
package registry

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/poly"
	"qokit/internal/statevec"
)

// Spec identifies a problem: the cost polynomial, the qubit count, and
// the mixer family (which fixes the feasible subspace the diagonal is
// evaluated against — the diagonal itself depends only on the terms,
// but evaluators built for different mixers are not interchangeable,
// so the mixer participates in the canonical key).
type Spec struct {
	// N is the number of qubits (1 ≤ N ≤ 34, the core simulator range).
	N int
	// Terms is the cost polynomial in the spin convention. It is
	// canonicalized (duplicate masks merged, zero weights dropped,
	// sorted) before hashing, so term order does not split the cache.
	Terms poly.Terms
	// Mixer is the mixer family the problem will be driven with.
	Mixer core.Mixer
	// HammingWeight is the Dicke sector for the xy mixers (≤ 0 means
	// the N/2 default). Ignored — and normalized to zero in the key —
	// for MixerX.
	HammingWeight int
}

// Key is the canonical problem hash: hex(SHA-256) over the
// canonicalized terms, N, and the mixer family. Identical problems
// registered from different term orderings map to the same Key.
type Key string

// Options configures a Registry.
type Options struct {
	// MaxBytes caps the resident bytes of cached cost forms (each
	// entry counts its stored entries, costvec.Stored.Bytes: 2 B per
	// code or 8 B per float64 entry over 2^(n−h) indices). 0 means
	// unlimited. Entries pinned by in-flight acquisitions may hold the
	// cache transiently over budget; they are reclaimed on final
	// release.
	MaxBytes int64
}

// Stats reports registry cache behavior. Precomputes counts actual
// cost-form builds — the counter the warm-path assertions check stays
// flat across repeated acquisitions.
type Stats struct {
	Problems      int   // registered problems
	Hits          int64 // acquisitions served from cache (incl. resurrections)
	Misses        int64 // acquisitions that had to precompute
	Precomputes   int64 // stored-form builds (2^(n−h) entries each) actually run
	Evictions     int64 // LRU evictions under budget pressure
	ResidentBytes int64 // bytes of cached cost forms currently in the LRU
	PinnedBytes   int64 // bytes held by evicted-but-still-referenced entries
}

// Registry is the problem cache. All methods are safe for concurrent
// use; the precompute runs outside the registry lock so a large miss
// does not stall unrelated hits.
type Registry struct {
	mu    sync.Mutex
	opts  Options
	pool  *statevec.Pool
	byKey map[Key]*entry
	// LRU list of resident entries: head = most recent, tail = next
	// eviction victim.
	head, tail *entry
	stats      Stats
}

type entry struct {
	key      Key
	spec     Spec
	compiled poly.Compiled

	// The cached cost form. cost == nil means not materialized (never
	// built, or reclaimed after eviction). building is non-nil while a
	// build is in flight so concurrent acquirers wait instead of
	// duplicating the precompute.
	cost     *costvec.Stored
	bytes    int64
	refs     int
	evicted  bool
	building chan struct{}

	prev, next *entry
}

// New builds an empty registry.
func New(opts Options) *Registry {
	return &Registry{
		opts:  opts,
		pool:  statevec.NewPool(0),
		byKey: make(map[Key]*entry),
	}
}

// KeyFor computes the canonical key of a spec without registering it.
// A NaN or ±Inf canonical weight returns an error wrapping
// poly.ErrNonFiniteCost.
func KeyFor(spec Spec) (Key, error) {
	if err := costvec.CheckQubits(spec.N); err != nil {
		return "", err
	}
	canon := spec.Terms.Canonical()
	for _, t := range canon {
		if m := t.Mask(); m >= 1<<uint(spec.N) {
			return "", fmt.Errorf("registry: term %v references a qubit ≥ n=%d", t, spec.N)
		}
		// Canonical sums the weights of equal masks, so this also
		// catches finite weights that overflow or cancel to NaN.
		if math.IsNaN(t.Weight) || math.IsInf(t.Weight, 0) {
			return "", fmt.Errorf("registry: %w: term %v", poly.ErrNonFiniteCost, t)
		}
	}
	hw := spec.HammingWeight
	if spec.Mixer == core.MixerX {
		hw = 0
	} else if hw <= 0 {
		hw = spec.N / 2
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(spec.N))
	put(uint64(spec.Mixer))
	put(uint64(hw))
	for _, t := range canon {
		put(t.Mask())
		put(math.Float64bits(t.Weight))
	}
	return Key(hex.EncodeToString(h.Sum(nil))), nil
}

// Register adds a problem (idempotently) and returns its canonical
// key. Registration is cheap — no precompute happens until the first
// Acquire.
func (r *Registry) Register(spec Spec) (Key, error) {
	key, err := KeyFor(spec)
	if err != nil {
		return "", err
	}
	canon := spec.Terms.Canonical()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byKey[key]; !ok {
		norm := spec
		norm.Terms = canon
		if norm.Mixer == core.MixerX {
			norm.HammingWeight = 0
		} else if norm.HammingWeight <= 0 {
			norm.HammingWeight = spec.N / 2
		}
		r.byKey[key] = &entry{key: key, spec: norm, compiled: poly.Compile(canon)}
		r.stats.Problems++
	}
	return key, nil
}

// Spec returns the normalized spec of a registered problem.
func (r *Registry) Spec(key Key) (Spec, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byKey[key]
	if !ok {
		return Spec{}, fmt.Errorf("registry: unknown problem key %s", key)
	}
	return e.spec, nil
}

// Stats returns a snapshot of the cache counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Handle is one refcounted acquisition of a problem's cached cost
// form. The data it exposes stays valid — even across an eviction —
// until Release.
type Handle struct {
	r        *Registry
	e        *entry
	released bool
}

// Acquire returns a handle on the problem's stored cost form,
// precomputing it on first use; a hit makes no pass over the entries.
// Concurrent acquirers of a cold entry share one precompute. ctx bounds
// the wait on an in-flight build. A cost with a NaN or ±Inf entry
// (finite weights whose sum overflows) returns an error wrapping
// poly.ErrNonFiniteCost and is not cached.
func (r *Registry) Acquire(ctx context.Context, key Key) (*Handle, error) {
	for {
		r.mu.Lock()
		e, ok := r.byKey[key]
		if !ok {
			r.mu.Unlock()
			return nil, fmt.Errorf("registry: unknown problem key %s", key)
		}
		if e.cost != nil {
			// Hit: resident, or evicted-but-pinned (resurrect).
			if e.evicted {
				r.stats.PinnedBytes -= e.bytes
				r.stats.ResidentBytes += e.bytes
				e.evicted = false
				r.pushFront(e)
				r.evictLocked()
			} else {
				r.moveFront(e)
			}
			e.refs++
			r.stats.Hits++
			r.mu.Unlock()
			return &Handle{r: r, e: e}, nil
		}
		if e.building != nil {
			done := e.building
			r.mu.Unlock()
			select {
			case <-done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			continue // re-check under the lock
		}
		// Miss: this goroutine owns the build.
		e.building = make(chan struct{})
		r.stats.Misses++
		r.stats.Precomputes++
		r.mu.Unlock()

		cost, err := r.build(e)
		if err != nil {
			r.mu.Lock()
			close(e.building)
			e.building = nil
			r.mu.Unlock()
			return nil, fmt.Errorf("registry: %s: %w", key, err)
		}

		r.mu.Lock()
		e.cost = cost
		e.bytes = cost.Bytes()
		e.refs++
		close(e.building)
		e.building = nil
		r.stats.ResidentBytes += e.bytes
		r.pushFront(e)
		r.evictLocked()
		r.mu.Unlock()
		return &Handle{r: r, e: e}, nil
	}
}

// build precomputes an entry's stored form: over the term group under
// the x mixer, over the full index space under the xy mixers, whose
// states have no symmetry to store over.
func (r *Registry) build(e *entry) (*costvec.Stored, error) {
	pivots, flip := costvec.TermPivots(e.spec.N, e.compiled.Masks)
	if e.spec.Mixer != core.MixerX {
		pivots = nil
	}
	return costvec.NewStored(r.pool, e.compiled, e.spec.N, pivots, flip)
}

// evictLocked pops LRU victims until the resident bytes fit the
// budget. Victims still referenced by in-flight handles move to the
// pinned account and are reclaimed on final release; unreferenced
// victims are reclaimed immediately.
func (r *Registry) evictLocked() {
	for r.opts.MaxBytes > 0 && r.stats.ResidentBytes > r.opts.MaxBytes && r.tail != nil {
		e := r.tail
		r.unlink(e)
		e.evicted = true
		r.stats.Evictions++
		r.stats.ResidentBytes -= e.bytes
		if e.refs > 0 {
			r.stats.PinnedBytes += e.bytes
		} else {
			reclaim(e)
		}
	}
}

// reclaim drops an entry's cached form, poisoning it with NaN first —
// the float64 entries, or a coded form's grid, from which every level
// is read — so any use-after-release, the bug class the refcounting
// exists to prevent, turns into a loud non-finite energy instead of a
// silent stale read.
func reclaim(e *entry) {
	if q := e.cost.Codes; q != nil {
		q.Min, q.Scale = math.NaN(), math.NaN()
	}
	for i := range e.cost.Diag {
		e.cost.Diag[i] = math.NaN()
	}
	e.cost = nil
	e.bytes = 0
	e.evicted = false
}

// Cost returns the cached stored cost form. Callers must treat it as
// read-only and must not retain it past Release.
func (h *Handle) Cost() *costvec.Stored { return h.e.cost }

// Diag returns the full 2^n cost diagonal, expanded from the stored
// form on every call (8·2^n fresh bytes): equal bit for bit to the
// diagonal of the terms. It must not be called after Release.
func (h *Handle) Diag() []float64 { return h.e.cost.Expand() }

// Key returns the problem key this handle is bound to.
func (h *Handle) Key() Key { return h.e.key }

// Spec returns the normalized problem spec.
func (h *Handle) Spec() Spec { return h.e.spec }

// Release drops the handle's reference. When the last reference to an
// evicted entry is released, its cost form is reclaimed; a later
// Acquire recomputes from scratch.
func (h *Handle) Release() {
	r, e := h.r, h.e
	r.mu.Lock()
	defer r.mu.Unlock()
	if h.released {
		return
	}
	h.released = true
	e.refs--
	if e.refs == 0 && e.evicted {
		r.stats.PinnedBytes -= e.bytes
		reclaim(e)
	}
}

// --- intrusive LRU list (r.mu held) ---

func (r *Registry) pushFront(e *entry) {
	e.prev = nil
	e.next = r.head
	if r.head != nil {
		r.head.prev = e
	}
	r.head = e
	if r.tail == nil {
		r.tail = e
	}
}

func (r *Registry) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		r.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		r.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (r *Registry) moveFront(e *entry) {
	if r.head == e {
		return
	}
	r.unlink(e)
	r.pushFront(e)
}
