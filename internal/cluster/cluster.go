// Package cluster is the simulated multi-node substrate for the
// distributed simulator (§III-C). K ranks run as goroutines sharing an
// in-process fabric that implements the collectives Algorithm 4 needs:
// an in-place MPI_Alltoall-style exchange, sum/min all-reduce, an
// all-gather, and barriers.
//
// Two all-to-all algorithms are provided, mirroring the paper's two
// communication backends (Fig. 5):
//
//	Pairwise  — the classic MPI algorithm: K−1 rounds, partner
//	            rank⊕round each round, one subchunk swapped per round
//	            with two synchronization points per round (the Cray-
//	            MPICH MPI_Alltoall analogue).
//	Transpose — every rank reads all K subchunks destined for it
//	            directly from its peers' published buffers between two
//	            barriers (the cuStateVec direct peer-to-peer analogue).
//
// The host machine has no real interconnect, so each communicator also
// keeps traffic counters (bytes, messages, synchronizations) and a
// modeled network time derived from a configurable latency/bandwidth
// model; benchmarks report measured wall time and modeled fabric time
// side by side (see DESIGN.md on this substitution).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// ErrAborted is the error collectives return after the group has been
// aborted (context cancellation, or an explicit Abort). An aborted
// group is permanently unusable — ranks blocked in any collective are
// released with this error instead of deadlocking, and later Run calls
// fail immediately — so owners of long-lived groups (engine leases)
// must discard an aborted group and build a fresh one.
var ErrAborted = errors.New("cluster: group aborted")

// AlltoallAlgo selects the all-to-all implementation.
type AlltoallAlgo int

const (
	// Pairwise is the XOR-scheduled pairwise-exchange algorithm.
	Pairwise AlltoallAlgo = iota
	// Transpose is the direct shared-memory block transpose.
	Transpose
)

// String names the algorithm.
func (a AlltoallAlgo) String() string {
	switch a {
	case Pairwise:
		return "pairwise"
	case Transpose:
		return "transpose"
	default:
		return fmt.Sprintf("AlltoallAlgo(%d)", int(a))
	}
}

// NetworkModel converts traffic counters into modeled fabric time.
// The defaults approximate a Slingshot-class HPC interconnect as used
// on Polaris (§V-B): ~2 µs message latency, 25 GB/s per-link
// bandwidth, ~1 µs per collective synchronization round. The sync term
// is what separates the two all-to-all algorithms at fixed volume:
// pairwise pays ~2(K−1) rounds per exchange, transpose pays 2.
type NetworkModel struct {
	LatencyPerMsg time.Duration
	BytesPerSec   float64
	SyncLatency   time.Duration
}

// DefaultNetworkModel returns the Polaris-like model.
func DefaultNetworkModel() NetworkModel {
	return NetworkModel{
		LatencyPerMsg: 2 * time.Microsecond,
		BytesPerSec:   25e9,
		SyncLatency:   time.Microsecond,
	}
}

// FaultFn is a fault injector consulted at the entry of every
// collective: it receives the calling rank, the collective's name
// ("Barrier", "Alltoall", "AllreduceSumVec", "Sendrecv", …), and how
// many times this rank has entered that collective before (0-based).
// Returning a non-nil error kills the rank at that point — the group
// is aborted with the error as its cause, the failing rank returns it,
// and every peer unwinds from its next synchronization with the same
// cause. This is the test harness behind the checkpoint/restart
// recovery suite: it simulates a node dying mid-collective without any
// cooperation from the code under test. Production groups leave it
// unset.
type FaultFn func(rank int, op string, call int) error

// Counters accumulates one rank's communication activity.
type Counters struct {
	BytesSent int64
	Messages  int64
	Syncs     int64
	// CommWall is wall time spent inside collectives (includes waiting
	// at barriers — on a single-core host this is scheduling time).
	CommWall time.Duration
}

// ModeledTime converts the counters into fabric time under the model.
func (c Counters) ModeledTime(m NetworkModel) time.Duration {
	t := time.Duration(c.Messages)*m.LatencyPerMsg + time.Duration(c.Syncs)*m.SyncLatency
	if m.BytesPerSec > 0 {
		t += time.Duration(float64(c.BytesSent) / m.BytesPerSec * float64(time.Second))
	}
	return t
}

// Group is the shared fabric connecting K ranks.
type Group struct {
	size int
	algo AlltoallAlgo

	bar *barrier

	// published per-rank pointers, valid between barrier pairs.
	bufs     [][]complex128
	floats   []float64
	fvecs    [][]float64
	fscratch [][]float64
	// Plane wire formats: the state collectives publish split (re, im)
	// planes, float64 or float32, and move 2·sizeof(element) bytes per
	// amplitude.
	planes64 planeFabric[float64]
	planes32 planeFabric[float32]

	counters []Counters

	// fault, when non-nil, is consulted by every collective entry;
	// faultCalls counts per-rank, per-collective entries (rank-local
	// maps, written only by the owning rank's goroutine).
	fault      FaultFn
	faultCalls []map[string]int

	// abortCause latches the first Abort cause; once set, the barrier
	// is poisoned and every collective returns the cause.
	abortCause atomic.Pointer[error]
}

// NewGroup creates the fabric for k ranks (k ≥ 1; Pairwise requires a
// power of two, checked at Alltoall time so mixed use stays possible).
func NewGroup(k int, algo AlltoallAlgo) (*Group, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: group size %d < 1", k)
	}
	return &Group{
		size:     k,
		algo:     algo,
		bar:      newBarrier(k),
		bufs:     make([][]complex128, k),
		floats:   make([]float64, k),
		fvecs:    make([][]float64, k),
		fscratch: make([][]float64, k),
		planes64: newPlaneFabric[float64](k),
		planes32: newPlaneFabric[float32](k),
		counters: make([]Counters, k),
	}, nil
}

// Size returns the number of ranks.
func (g *Group) Size() int { return g.size }

// Comm returns rank r's communicator endpoint.
func (g *Group) Comm(r int) *Comm {
	if r < 0 || r >= g.size {
		panic(fmt.Sprintf("cluster: rank %d out of range [0,%d)", r, g.size))
	}
	return &Comm{g: g, rank: r}
}

// Counters returns a copy of rank r's traffic counters.
func (g *Group) Counters(r int) Counters { return g.counters[r] }

// SetFault installs a fault injector. It must be called before any
// rank enters a collective (in practice: before Run/RunContext).
func (g *Group) SetFault(f FaultFn) {
	g.fault = f
	if f != nil && g.faultCalls == nil {
		g.faultCalls = make([]map[string]int, g.size)
		for r := range g.faultCalls {
			g.faultCalls[r] = make(map[string]int)
		}
	}
}

// TotalCounters sums counters across ranks.
func (g *Group) TotalCounters() Counters {
	var t Counters
	for _, c := range g.counters {
		t.BytesSent += c.BytesSent
		t.Messages += c.Messages
		t.Syncs += c.Syncs
		if c.CommWall > t.CommWall {
			t.CommWall = c.CommWall // critical path, not sum
		}
	}
	return t
}

// Abort poisons the group: every rank blocked in (or later entering) a
// collective is released with cause (ErrAborted when cause is nil), and
// the group is permanently dead. This is the only way to interrupt
// ranks waiting at a barrier without stranding their peers — the
// poison is observed by all ranks at whichever synchronization point
// each reaches next, so the unwind itself needs no coordination.
func (g *Group) Abort(cause error) {
	if cause == nil {
		cause = ErrAborted
	}
	g.abortCause.CompareAndSwap(nil, &cause)
	g.bar.poison()
}

// aborted returns the latched abort cause, or nil.
func (g *Group) aborted() error {
	if p := g.abortCause.Load(); p != nil {
		return *p
	}
	return nil
}

// Run launches fn on k goroutine ranks and waits for all to return,
// collecting the first non-nil error.
func (g *Group) Run(fn func(c *Comm) error) error {
	return g.RunContext(context.Background(), fn)
}

// RunContext is Run with cancellation: when ctx is cancelled mid-run,
// the group is aborted (all ranks unwind from their next collective
// with ErrAborted) and RunContext returns ctx.Err(). The group cannot
// be used again after a cancelled run — collectives may have been torn
// down mid-exchange, so there is no consistent state to resume from.
func (g *Group) RunContext(ctx context.Context, fn func(c *Comm) error) error {
	if err := g.aborted(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var stop, watcherDone chan struct{}
	if ctx.Done() != nil {
		stop = make(chan struct{})
		watcherDone = make(chan struct{})
		go func() {
			defer close(watcherDone)
			select {
			case <-ctx.Done():
				g.Abort(ctx.Err())
			case <-stop:
			}
		}()
	}
	errs := make([]error, g.size)
	var wg sync.WaitGroup
	for r := 0; r < g.size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(g.Comm(r))
		}(r)
	}
	wg.Wait()
	if stop != nil {
		close(stop)
		<-watcherDone
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// The latched abort cause is the root error. Scanning errs in rank
	// order would report whichever failing rank has the lowest id —
	// when two ranks abort concurrently with distinct causes, the rank
	// that lost the Abort CAS could still win the scan and mask the
	// first (root) cause behind its own secondary one.
	if cause := g.aborted(); cause != nil {
		return cause
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Comm is one rank's endpoint into the group fabric.
type Comm struct {
	g    *Group
	rank int
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the group size.
func (c *Comm) Size() int { return c.g.size }

// Counters returns this rank's traffic counters so far.
func (c *Comm) Counters() Counters { return c.g.counters[c.rank] }

// Barrier synchronizes all ranks. It returns non-nil only when the
// group has been aborted.
func (c *Comm) Barrier() error {
	if err := c.checkFault("Barrier"); err != nil {
		return err
	}
	start := time.Now()
	if !c.g.bar.wait() {
		return c.abortErr()
	}
	ctr := &c.g.counters[c.rank]
	ctr.Syncs++
	ctr.CommWall += time.Since(start)
	return nil
}

// abortErr names the abort cause from inside a collective.
func (c *Comm) abortErr() error {
	if err := c.g.aborted(); err != nil {
		return err
	}
	return ErrAborted
}

// Abort poisons the whole group from one rank (see Group.Abort). A rank
// whose rank-local work fails — a checkpoint write, say — uses this to
// kill its peers' next synchronization instead of stranding them at the
// barrier it will never reach.
func (c *Comm) Abort(cause error) { c.g.Abort(cause) }

// checkFault consults the installed fault injector at a collective
// entry. On injection the rank dies exactly as a real failure would:
// the group is aborted with the fault as its cause and the collective
// returns it without touching the fabric.
func (c *Comm) checkFault(op string) error {
	g := c.g
	if g.fault == nil {
		return nil
	}
	calls := g.faultCalls[c.rank]
	n := calls[op]
	calls[op] = n + 1
	if err := g.fault(c.rank, op, n); err != nil {
		err = fmt.Errorf("cluster: injected fault at rank %d %s[%d]: %w", c.rank, op, n, err)
		g.Abort(err)
		return err
	}
	return nil
}

// Elem is the element type of a state's split (re, im) planes: float64
// or float32. The state collectives move both planes of an amplitude
// range together, 2·sizeof(Elem) bytes per amplitude, so float32
// shards cost half the fabric volume of float64 ones at identical
// message and synchronization counts.
type Elem interface {
	float32 | float64
}

// planeFabric holds the per-rank plane pointers one element type's
// collectives publish, valid between barrier pairs, and each rank's
// receive scratch.
type planeFabric[T Elem] struct {
	pub     [][2][]T
	scratch [][2][]T
}

func newPlaneFabric[T Elem](k int) planeFabric[T] {
	return planeFabric[T]{pub: make([][2][]T, k), scratch: make([][2][]T, k)}
}

// fabric returns the group's plane fabric for element type T.
func fabric[T Elem](g *Group) *planeFabric[T] {
	var f any
	switch any(T(0)).(type) {
	case float64:
		f = &g.planes64
	case float32:
		f = &g.planes32
	}
	return f.(*planeFabric[T])
}

// scratchFor returns rank's receive scratch of at least size
// amplitudes, grown on first use.
func (f *planeFabric[T]) scratchFor(rank, size int) (re, im []T) {
	if len(f.scratch[rank][0]) < size {
		f.scratch[rank] = [2][]T{make([]T, size), make([]T, size)}
	}
	return f.scratch[rank][0][:size], f.scratch[rank][1][:size]
}

// ampBytes is the wire size of one amplitude in planes of T.
func ampBytes[T Elem]() int64 {
	if _, ok := any(T(0)).(float32); ok {
		return 8
	}
	return 16
}

// Alltoall performs the in-place all-to-all exchange on a state's split
// planes: re and im are split into Size() equal subchunks; subchunk s
// is sent to rank s, which stores it as its subchunk Rank(). Every rank
// must call with equal plane lengths divisible by Size(). This is the
// collective at the heart of Algorithm 4 — for a state vector it
// transposes the (rank, top-local-qubits) index pair. Both planes move
// inside one barrier pair; the counters charge one message per peer
// subchunk and 2·sizeof(T) bytes per amplitude. The fault injector sees
// the op name "Alltoall" for every element type.
func Alltoall[T Elem](c *Comm, re, im []T) error {
	if err := c.checkFault("Alltoall"); err != nil {
		return err
	}
	g := c.g
	k := g.size
	if len(re) != len(im) {
		return fmt.Errorf("cluster: Alltoall plane lengths differ: %d vs %d", len(re), len(im))
	}
	if len(re)%k != 0 {
		return fmt.Errorf("cluster: Alltoall buffer length %d not divisible by %d ranks", len(re), k)
	}
	if g.algo == Pairwise && bits.OnesCount(uint(k)) != 1 {
		return fmt.Errorf("cluster: pairwise all-to-all requires power-of-two ranks, got %d", k)
	}
	start := time.Now()
	f := fabric[T](g)
	sub := len(re) / k
	bytes := int64(sub) * ampBytes[T]()
	ctr := &g.counters[c.rank]
	f.pub[c.rank] = [2][]T{re, im}
	switch g.algo {
	case Transpose:
		// Read each peer's subchunk destined for us into scratch, then
		// copy back — two barriers total. The rank's own subchunk stays
		// where it is, so only the K−1 remote ones are copied.
		tmpRe, tmpIm := f.scratchFor(c.rank, len(re))
		if !g.bar.wait() {
			return c.abortErr()
		}
		own := c.rank * sub
		for s := 0; s < k; s++ {
			if s == c.rank {
				continue
			}
			copy(tmpRe[s*sub:(s+1)*sub], f.pub[s][0][own:own+sub])
			copy(tmpIm[s*sub:(s+1)*sub], f.pub[s][1][own:own+sub])
			ctr.Messages++
			ctr.BytesSent += bytes
		}
		if !g.bar.wait() {
			return c.abortErr()
		}
		for s := 0; s < k; s++ {
			if s != c.rank {
				copy(re[s*sub:(s+1)*sub], tmpRe[s*sub:(s+1)*sub])
				copy(im[s*sub:(s+1)*sub], tmpIm[s*sub:(s+1)*sub])
			}
		}
		ctr.Syncs += 2
	case Pairwise:
		// K−1 rounds; in round r, exchange subchunks with rank⊕r. Each
		// round publishes, swaps, and re-synchronizes (the per-round
		// handshakes are what make this algorithm slower on fabrics
		// with cheap direct peer access, as in Fig. 5).
		tmpRe, tmpIm := f.scratchFor(c.rank, sub)
		for round := 1; round < k; round++ {
			partner := c.rank ^ round
			if !g.bar.wait() {
				return c.abortErr()
			}
			copy(tmpRe, f.pub[partner][0][c.rank*sub:(c.rank+1)*sub])
			copy(tmpIm, f.pub[partner][1][c.rank*sub:(c.rank+1)*sub])
			if !g.bar.wait() {
				return c.abortErr()
			}
			copy(re[partner*sub:(partner+1)*sub], tmpRe)
			copy(im[partner*sub:(partner+1)*sub], tmpIm)
			ctr.Messages++
			ctr.BytesSent += bytes
			ctr.Syncs += 2
		}
		if !g.bar.wait() {
			return c.abortErr()
		}
		ctr.Syncs++
	default:
		return fmt.Errorf("cluster: unknown all-to-all algorithm %v", g.algo)
	}
	ctr.CommWall += time.Since(start)
	return nil
}

// Sendrecv exchanges split planes between paired ranks: this rank's
// (re, im) is made visible to partner, and partner's published planes
// are copied into (recvRe, recvIm). Every rank in the group must call
// once per round; a rank with partner < 0 (or partner == its own rank)
// participates in the synchronization but moves no data. Pairings must
// be mutual — if rank a names b, rank b must name a. This is the
// MPI_Sendrecv the distributed xy mixer builds on: an xy edge touching
// a global qubit couples each amplitude to one on exactly one partner
// rank (the rank index flipped in that qubit's bit), so the gate needs
// a point-to-point slice exchange, not a full all-to-all (the
// cuStateVec index-bit-swap pattern). A sending rank is charged one
// message and 2·sizeof(T) bytes per amplitude of re.
func Sendrecv[T Elem](c *Comm, partner int, re, im, recvRe, recvIm []T) error {
	if err := c.checkFault("Sendrecv"); err != nil {
		return err
	}
	g := c.g
	start := time.Now()
	// Validation must not strand the peers: an erroring rank still
	// walks both barriers (moving no data) so the error surfaces
	// through Run instead of deadlocking the group — the same
	// no-stranding convention AllreduceSumVec follows.
	var err error
	if len(recvRe) != len(recvIm) {
		err = fmt.Errorf("cluster: Sendrecv receive plane lengths differ: %d vs %d", len(recvRe), len(recvIm))
		partner = -1
	}
	if len(re) != len(im) {
		err = fmt.Errorf("cluster: Sendrecv send plane lengths differ: %d vs %d", len(re), len(im))
		partner = -1
	}
	if partner >= g.size {
		err = fmt.Errorf("cluster: Sendrecv partner %d out of range [0,%d)", partner, g.size)
		partner = -1
	}
	f := fabric[T](g)
	f.pub[c.rank] = [2][]T{re, im}
	if !g.bar.wait() {
		return c.abortErr()
	}
	ctr := &g.counters[c.rank]
	if partner >= 0 && partner != c.rank {
		// Guard both published planes: a peer that published a
		// mismatched pair must surface as this rank's error, never as a
		// slice-bounds panic inside the group goroutine.
		srcRe, srcIm := f.pub[partner][0], f.pub[partner][1]
		if len(srcRe) < len(recvRe) || len(srcIm) < len(recvIm) {
			err = fmt.Errorf("cluster: Sendrecv rank %d published (%d, %d) amplitudes, rank %d expects %d",
				partner, len(srcRe), len(srcIm), c.rank, len(recvRe))
		} else {
			copy(recvRe, srcRe[:len(recvRe)])
			copy(recvIm, srcIm[:len(recvIm)])
			ctr.Messages++
			ctr.BytesSent += int64(len(re)) * ampBytes[T]()
		}
	}
	if !g.bar.wait() {
		return c.abortErr()
	}
	ctr.Syncs += 2
	ctr.CommWall += time.Since(start)
	return err
}

// AllreduceSum returns the sum of x across ranks, on every rank.
func (c *Comm) AllreduceSum(x float64) (float64, error) {
	if err := c.checkFault("AllreduceSum"); err != nil {
		return 0, err
	}
	g := c.g
	g.floats[c.rank] = x
	c.syncCount(2)
	if !g.bar.wait() {
		return 0, c.abortErr()
	}
	var s float64
	for _, v := range g.floats {
		s += v
	}
	if !g.bar.wait() {
		return 0, c.abortErr()
	}
	return s, nil
}

// AllreduceMin returns the minimum of x across ranks, on every rank.
func (c *Comm) AllreduceMin(x float64) (float64, error) {
	if err := c.checkFault("AllreduceMin"); err != nil {
		return 0, err
	}
	g := c.g
	g.floats[c.rank] = x
	c.syncCount(2)
	if !g.bar.wait() {
		return 0, c.abortErr()
	}
	m := g.floats[0]
	for _, v := range g.floats[1:] {
		if v < m {
			m = v
		}
	}
	if !g.bar.wait() {
		return 0, c.abortErr()
	}
	return m, nil
}

// AllreduceMax returns the maximum of x across ranks, on every rank:
// AllreduceMin under negation, with identical synchronization and
// abort behavior. Together with AllreduceMin it is the agreement
// pre-pass of the distributed quantized diagonal: every rank learns
// the global cost extrema, so all shards quantize against one shared
// (min, scale) and codes stay comparable across ranks.
func (c *Comm) AllreduceMax(x float64) (float64, error) {
	m, err := c.AllreduceMin(-x)
	if err != nil {
		return 0, err
	}
	return -m, nil
}

// AllreduceSumVec sums x elementwise across ranks, in place: on
// return every rank's x holds the rank-wise sum. All ranks must call
// with equal lengths. This is the MPI_Allreduce(…, MPI_SUM) the
// distributed adjoint gradient uses to combine its per-layer partial
// derivatives — one vector collective for the whole 2p-component
// gradient instead of 2p scalar ones. Like the scalar reductions, it
// is accounted as synchronization (not payload) in the counters; the
// traffic counters therefore measure exactly the state-sized mixer
// exchanges, which dominate at any realistic n (2p·8 bytes vs
// 2^{n−k}·16 per rank).
func (c *Comm) AllreduceSumVec(x []float64) error {
	if err := c.checkFault("AllreduceSumVec"); err != nil {
		return err
	}
	g := c.g
	start := time.Now()
	g.fvecs[c.rank] = x
	if g.fscratch[c.rank] == nil || len(g.fscratch[c.rank]) < len(x) {
		g.fscratch[c.rank] = make([]float64, len(x))
	}
	tmp := g.fscratch[c.rank][:len(x)]
	if !g.bar.wait() {
		return c.abortErr()
	}
	for _, v := range g.fvecs {
		if len(v) != len(x) {
			// Leave no rank stranded at the closing barrier: finish the
			// collective, then report.
			g.bar.wait()
			return fmt.Errorf("cluster: AllreduceSumVec length mismatch: rank %d has %d, rank %d has %d",
				c.rank, len(x), firstMismatch(g.fvecs, len(x)), len(v))
		}
	}
	for i := range tmp {
		tmp[i] = 0
	}
	for _, v := range g.fvecs {
		for i, w := range v {
			tmp[i] += w
		}
	}
	if !g.bar.wait() {
		return c.abortErr()
	}
	copy(x, tmp)
	ctr := &g.counters[c.rank]
	ctr.Syncs += 2
	ctr.CommWall += time.Since(start)
	return nil
}

func firstMismatch(vecs [][]float64, want int) int {
	for r, v := range vecs {
		if len(v) != want {
			return r
		}
	}
	return -1
}

// AllGather concatenates every rank's local buffer in rank order and
// returns the full vector on every rank (the paper's mpi_gather=True
// output path).
func (c *Comm) AllGather(local []complex128) ([]complex128, error) {
	if err := c.checkFault("AllGather"); err != nil {
		return nil, err
	}
	g := c.g
	g.bufs[c.rank] = local
	c.syncCount(2)
	if !g.bar.wait() {
		return nil, c.abortErr()
	}
	total := 0
	for _, b := range g.bufs {
		total += len(b)
	}
	out := make([]complex128, 0, total)
	for _, b := range g.bufs {
		out = append(out, b...)
	}
	if !g.bar.wait() {
		return nil, c.abortErr()
	}
	return out, nil
}

func (c *Comm) syncCount(n int64) {
	ctr := &c.g.counters[c.rank]
	ctr.Syncs += n
}

// barrier is a reusable (cyclic) barrier for a fixed party count. It
// can be poisoned: every waiter (current and future) is released with
// wait() == false, which is how an aborted group unwinds ranks blocked
// in collectives without deadlocking their peers.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	size     int
	count    int
	gen      uint64
	poisoned bool
}

func newBarrier(size int) *barrier {
	b := &barrier{size: size}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all parties arrive and reports true, or returns
// false immediately once the barrier is poisoned.
func (b *barrier) wait() bool {
	b.mu.Lock()
	if b.poisoned {
		b.mu.Unlock()
		return false
	}
	gen := b.gen
	b.count++
	if b.count == b.size {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return true
	}
	for gen == b.gen && !b.poisoned {
		b.cond.Wait()
	}
	ok := !b.poisoned
	b.mu.Unlock()
	return ok
}

// poison releases all waiters with false and makes every future wait
// fail. Irreversible: the arrival count is left inconsistent.
func (b *barrier) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
