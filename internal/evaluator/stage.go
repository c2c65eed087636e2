package evaluator

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"qokit/internal/sampling"
)

// This file holds the one output stage both state-vector engines run: the
// ground-state minimum and overlap, the most probable state,
// probability queries, CVaR, the cost variance and the two-stage shot
// draw, computed from the evolved amplitudes without a node-scale
// buffer. A sharded engine runs it on every rank over the rank's shard,
// with its cluster endpoint as the Collective; a single-node engine
// runs it over its whole state through OneRank, whose reductions return
// their argument. The paper's distributed simulator (§III-C) serves its
// outputs the same way, from the shards.

// Collective is the set of cross-rank operations the output stage
// uses. Every rank of an evaluation makes the same sequence of calls;
// *cluster.Comm implements it, and so does OneRank.
type Collective interface {
	Rank() int
	Size() int
	Barrier() error
	AllreduceSum(x float64) (float64, error)
	AllreduceMin(x float64) (float64, error)
	AllreduceMax(x float64) (float64, error)
	AllreduceSumVec(x []float64) error
}

// OneRank is the collective of a single-node state: a group of one
// rank whose reductions return their argument and whose barrier
// returns at once.
type OneRank struct{}

func (OneRank) Rank() int                               { return 0 }
func (OneRank) Size() int                               { return 1 }
func (OneRank) Barrier() error                          { return nil }
func (OneRank) AllreduceSum(x float64) (float64, error) { return x, nil }
func (OneRank) AllreduceMin(x float64) (float64, error) { return x, nil }
func (OneRank) AllreduceMax(x float64) (float64, error) { return x, nil }
func (OneRank) AllreduceSumVec([]float64) error         { return nil }

// Amplitudes is one rank's evolved state as the output stage reads it,
// by local index i ∈ [0, View.Len).
type Amplitudes interface {
	// Prob returns |ψ_i|² in float64.
	Prob(i int) float64
	// Cost returns the cost of the basis states index i stands for.
	Cost(i int) float64
	// Ascending returns the local indices by ascending cost, ties by
	// index. It depends on the cost alone, so implementations build it
	// once and cache it.
	Ascending() []int
}

// View is one rank's read-only view of its stored amplitudes. The
// stored amplitudes of all ranks form the stored index space: a state
// kept over a symmetry group of 2^h elements stores the 2^(n−h) basis
// states whose top h bits are zero, and basis state x is read at
// x ⊕ Group[x >> (n−h)]; a full state stores all 2^n. Each rank holds
// the contiguous run [Offset, Offset+Len) of that space.
type View struct {
	Amplitudes
	// N is the qubit count of the full state.
	N int
	// Offset is the stored index of this rank's local index 0, and Len
	// the number of amplitudes the rank holds.
	Offset uint64
	Len    int
	// Group holds the 2^h elements of the XOR-symmetry group the state
	// is stored over, indexed by their top h bits (costvec.Group): {0}
	// for a full state, {0, 2^n−1} for a half state or half shard, four
	// elements for LABS's quarter state or quarter shards.
	Group []uint64
	// Restrict limits the ground-state search to the basis states of
	// Hamming weight HammingWeight, the feasible subspace the xy mixers
	// never leave.
	Restrict      bool
	HammingWeight int
}

// weight is the number of basis states each stored amplitude stands
// for, 2^h: they share its cost and its probability.
func (v View) weight() float64 { return float64(len(v.Group)) }

// local returns the local index at which this rank stores basis state
// x, and whether it stores x at all.
func (v View) local(x uint64) (int, bool) {
	h := bits.TrailingZeros(uint(len(v.Group)))
	j := (x ^ v.Group[x>>uint(v.N-h)]) - v.Offset
	return int(j), j < uint64(v.Len)
}

// feasible reports whether local index i lies in the feasible subspace.
func (v View) feasible(i int) bool {
	return !v.Restrict || bits.OnesCount64(v.Offset+uint64(i)) == v.HammingWeight
}

// Ground returns, on every rank, the minimum cost over the feasible
// basis states and the probability of measuring a state within 1e-9
// of it (QOKit's get_overlap).
func (v View) Ground(c Collective) (minCost, overlap float64, err error) {
	local := math.Inf(1)
	for i := 0; i < v.Len; i++ {
		if cost := v.Cost(i); cost < local && v.feasible(i) {
			local = cost
		}
	}
	if minCost, err = c.AllreduceMin(local); err != nil {
		return 0, 0, err
	}
	weight := v.weight()
	var mass float64
	for i := 0; i < v.Len; i++ {
		if v.Cost(i) <= minCost+1e-9 && v.feasible(i) {
			mass += weight * v.Prob(i)
		}
	}
	overlap, err = c.AllreduceSum(mass)
	return minCost, overlap, err
}

// maxProb returns the largest |ψ_x|² and the lowest basis state x that
// attains it, on every rank. The members of a stored amplitude's orbit
// other than x itself have nonzero top bits, so the lowest maximum is
// a stored index.
func (v View) maxProb(c Collective) (float64, uint64, error) {
	localMax, localArg := -1.0, 0
	for i := 0; i < v.Len; i++ {
		if p := v.Prob(i); p > localMax {
			localMax, localArg = p, i
		}
	}
	maxP, err := c.AllreduceMax(localMax)
	if err != nil {
		return 0, 0, err
	}
	// float64 holds any index of n ≤ 34 qubits exactly.
	cand := math.Inf(1)
	if localMax == maxP {
		cand = float64(v.Offset + uint64(localArg))
	}
	arg, err := c.AllreduceMin(cand)
	return maxP, uint64(arg), err
}

// probs returns |ψ_x|² for each queried basis state, on every rank: one
// vector all-reduce, each entry filled by the rank that stores it.
func (v View) probs(c Collective, queries []uint64) ([]float64, error) {
	buf := make([]float64, len(queries))
	for j, x := range queries {
		if i, ok := v.local(x); ok {
			buf[j] = v.Prob(i)
		}
	}
	return buf, c.AllreduceSumVec(buf)
}

// Variance returns Var(Ĉ) over the measurement distribution, on every
// rank. Each rank runs a weighted Welford recurrence over its stored
// amplitudes, one accumulation per nonzero probability (no ⟨Ĉ²⟩ − ⟨Ĉ⟩²
// cancellation); K ranks then exchange their (weight, mean, M2)
// triples in disjoint slots of one 3K-entry AllreduceSumVec and fold
// them in rank order with Chan's merge
//
//	W = Wa + Wb;  δ = mb − ma;  mean = ma + δ·Wb/W
//	M2 = M2a + M2b + δ²·Wa·Wb/W
//
// which at one rank returns the rank's own M2/W, so a single rank
// allocates nothing.
func (v View) Variance(c Collective) (float64, error) {
	weight := v.weight()
	var w, mean, m2 float64
	for i := 0; i < v.Len; i++ {
		p := weight * v.Prob(i)
		if p == 0 {
			continue
		}
		cost := v.Cost(i)
		w += p
		delta := cost - mean
		mean += delta * p / w
		m2 += p * delta * (cost - mean)
	}
	if size := c.Size(); size > 1 {
		triples := make([]float64, 3*size)
		rank := c.Rank()
		triples[3*rank], triples[3*rank+1], triples[3*rank+2] = w, mean, m2
		if err := c.AllreduceSumVec(triples); err != nil {
			return 0, err
		}
		w, mean, m2 = 0, 0, 0
		for r := 0; r < size; r++ {
			wb, mb, m2b := triples[3*r], triples[3*r+1], triples[3*r+2]
			if wb == 0 {
				continue
			}
			wn := w + wb
			delta := mb - mean
			mean += delta * wb / wn
			m2 += m2b + delta*delta*w*wb/wn
			w = wn
		}
	}
	if w == 0 {
		return 0, nil
	}
	return m2 / w, nil
}

// markStride is the spacing of the running-mass marks CVaR keeps.
const markStride = 64

// validLevel reports whether a is a CVaR level in (0, 1]; NaN is not.
func validLevel(a float64) bool { return a > 0 && a <= 1 }

// CVaR returns, on every rank, the Conditional Value at Risk at each
// level α ∈ (0, 1]: the expected cost over the lowest-cost α-fraction
// of the measurement distribution. CVaR(1) is the expectation; small α
// rewards a heavy low-cost tail, which makes optimization target the
// solution quality a sampler delivers.
//
// The ranks agree on a cost threshold c*, the smallest cost carrying
// mass whose cumulative mass F(c*) reaches α: bisection on the cost
// axis, each step one AllreduceSum of the ranks' masses at or below the
// midpoint, then a snap (AllreduceMin over each rank's next cost
// carrying mass) onto an actual cost. The result is the closed form
// (Σ_{cost<c*} p·c + (α − P(cost<c*))·c*)/α from one two-entry vector
// all-reduce; mass tied at c* enters only through it. Each rank reads
// costs along its cached ascending order and keeps the running mass
// along it at every markStride-th position only: a prefix mass replays
// the sum from the nearest mark, so it has the bits a full prefix array
// would hold, in 1/markStride of the memory. p·c is summed once c* is
// known.
func (v View) CVaR(c Collective, alphas []float64) ([]float64, error) {
	for _, a := range alphas {
		if !validLevel(a) {
			return nil, fmt.Errorf("evaluator: CVaR level %v outside (0,1]", a)
		}
	}
	order := v.Ascending()
	weight := v.weight()
	costAt := func(j int) float64 { return v.Cost(order[j]) }
	massAt := func(j int) float64 { return weight * v.Prob(order[j]) }
	// marks[b] is the mass of the positions before b·markStride; the
	// costs carrying mass span [lowest, highest].
	marks := make([]float64, len(order)/markStride+1)
	var total, totalPC float64
	lowest, highest := math.Inf(1), math.Inf(-1)
	for j := range order {
		if m := massAt(j); m > 0 {
			cost := costAt(j)
			if total == 0 {
				lowest = cost
			}
			total += m
			totalPC += m * cost
			highest = cost
		}
		if (j+1)%markStride == 0 {
			marks[(j+1)/markStride] = total
		}
	}
	// massLE(x) is this rank's P(cost ≤ x): the running mass before the
	// first position whose cost exceeds x.
	massLE := func(x float64) float64 {
		j := sort.Search(len(order), func(j int) bool { return costAt(j) > x })
		mass := marks[j/markStride]
		for i := j / markStride * markStride; i < j; i++ {
			if m := massAt(i); m > 0 {
				mass += m
			}
		}
		return mass
	}

	agg := []float64{total, totalPC}
	if err := c.AllreduceSumVec(agg); err != nil {
		return nil, err
	}
	total, totalPC = agg[0], agg[1]
	gLowest, err := c.AllreduceMin(lowest)
	if err != nil {
		return nil, err
	}
	gHighest, err := c.AllreduceMax(highest)
	if err != nil {
		return nil, err
	}

	out := make([]float64, len(alphas))
	for ai, alpha := range alphas {
		if alpha > total {
			// Every cost carrying mass enters whole; a shortfall beyond
			// rounding (an unnormalized state) is charged at the largest
			// of them.
			acc := totalPC
			if alpha-total > 1e-12 && !math.IsInf(gHighest, -1) {
				acc += (alpha - total) * gHighest
			}
			out[ai] = acc / alpha
			continue
		}
		// Bisection, keeping F(lo) < α ≤ F(hi).
		lo, hi := gLowest-1, gHighest
		for iter := 0; iter < 200 && lo < hi; iter++ {
			mid := lo + (hi-lo)/2
			if mid <= lo || mid >= hi {
				break
			}
			f, err := c.AllreduceSum(massLE(mid))
			if err != nil {
				return nil, err
			}
			if f >= alpha {
				hi = mid
			} else {
				lo = mid
			}
		}
		// Snap: the smallest cost carrying mass in (lo, hi] across ranks.
		// The bisected interval is a few ULPs wide, so this visits the
		// handful of distinct costs left inside it.
		cstar := hi
		for {
			next := math.Inf(1)
			j := sort.Search(len(order), func(j int) bool { return costAt(j) > lo })
			for ; j < len(order) && costAt(j) <= hi; j++ {
				if massAt(j) > 0 {
					next = costAt(j)
					break
				}
			}
			c1, err := c.AllreduceMin(next)
			if err != nil {
				return nil, err
			}
			if math.IsInf(c1, 1) {
				break // no cost left; keep hi (F(hi) ≥ α)
			}
			f, err := c.AllreduceSum(massLE(c1))
			if err != nil {
				return nil, err
			}
			if f >= alpha {
				cstar = c1
				break
			}
			lo = c1
		}
		// Everything strictly below c* enters whole; the rest of the α
		// budget is charged at c*.
		pair := make([]float64, 2)
		for j := 0; j < len(order) && costAt(j) < cstar; j++ {
			if m := massAt(j); m > 0 {
				pair[0] += m
				pair[1] += m * costAt(j)
			}
		}
		if err := c.AllreduceSumVec(pair); err != nil {
			return nil, err
		}
		out[ai] = (pair[1] + (alpha-pair[0])*cstar) / alpha
	}
	return out, nil
}

// samplers builds the two stages of the shot draw: the rank sampler
// over the all-reduced rank masses, seeded with seed and so identical
// on every rank (every rank agrees on which rank wins each shot with no
// further communication), and this rank's draw of a basis state. The
// draw takes a stored index from an alias sampler built straight from
// the rank's masses, with no copy of them (seed+rank+1; nil for a rank
// without mass, which never wins), and on a group state then the
// element group[Int63() & (2^h−1)] from a second stream
// (seed+K+rank+1), so basis state i ⊕ g comes up with the
// probability of its orbit's stored amplitude, as over the expanded
// state.
func (v View) samplers(c Collective, seed int64) (*sampling.Sampler, func() uint64, error) {
	rank, size := c.Rank(), c.Size()
	weight := v.weight()
	massOf := func(i int) float64 { return weight * v.Prob(i) }
	var mass float64
	for i := 0; i < v.Len; i++ {
		mass += massOf(i)
	}
	masses := make([]float64, size)
	masses[rank] = mass
	if err := c.AllreduceSumVec(masses); err != nil {
		return nil, nil, err
	}
	rankSampler, err := sampling.NewSampler(masses, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("evaluator: rank-mass distribution: %w", err)
	}
	if mass == 0 {
		return rankSampler, nil, nil
	}
	local, err := sampling.NewSamplerFunc(v.Len, massOf, seed+int64(rank)+1)
	if err != nil {
		return nil, nil, fmt.Errorf("evaluator: rank %d distribution: %w", rank, err)
	}
	if len(v.Group) == 1 {
		return rankSampler, func() uint64 { return v.Offset + local.Sample() }, nil
	}
	pick := rand.New(rand.NewSource(seed + int64(size+rank) + 1))
	mask := int64(len(v.Group) - 1)
	return rankSampler, func() uint64 {
		return (v.Offset + local.Sample()) ^ v.Group[pick.Int63()&mask]
	}, nil
}

// Stage is the output stage of one evaluation. Every rank runs it
// (Run) over its own view with its own endpoint; rank 0 stores the
// reduced outputs, and each rank writes the shots it wins into the
// Stage's shared shot buffer.
type Stage struct {
	spec OutputSpec
	// out receives the outputs; nil streams shots only.
	out *Outputs
	// chunk is the shot buffer: out.Samples on the buffered path, one
	// reused chunk on the streaming path, delivered to fn by rank 0.
	chunk []uint64
	fn    func(chunk []uint64) error
	fnErr error
}

// NewStage validates spec for the buffered EvalOutputs path of an
// n-qubit engine and returns the stage that fills out: every field but
// Energy, which the engine's own reduction supplies.
func NewStage(n int, spec OutputSpec, out *Outputs) (*Stage, error) {
	if err := spec.Validate(n); err != nil {
		return nil, err
	}
	st := &Stage{spec: spec, out: out}
	if spec.Shots > 0 {
		out.Samples = make([]uint64, spec.Shots)
		st.chunk = out.Samples
	}
	return st, nil
}

// NewStream validates spec for the streaming path (SampleStreamer) of
// an n-qubit engine and returns the stage that draws spec.Shots basis
// states into one reused buffer of at most SampleChunkSize entries,
// delivering each chunk to fn. The draw is the buffered path's, so the
// concatenated chunks equal Outputs.Samples for the same spec.
func NewStream(n int, spec OutputSpec, fn func(chunk []uint64) error) (*Stage, error) {
	if err := spec.ValidateStreaming(n); err != nil {
		return nil, err
	}
	return &Stage{spec: spec, chunk: make([]uint64, min(spec.Shots, SampleChunkSize)), fn: fn}, nil
}

// Run runs this rank's share of the stage over v. Every rank of the
// evaluation calls it with the same collective sequence; the caller
// reads the outputs only after every rank has returned. A non-nil
// error from the streaming fn aborts the stream and is returned
// verbatim, and ctx is checked at every chunk boundary.
func (st *Stage) Run(ctx context.Context, c Collective, v View) error {
	if st.out != nil {
		if err := st.fill(c, v); err != nil {
			return err
		}
	}
	if st.spec.Shots == 0 {
		return nil
	}
	return st.draw(ctx, c, v)
}

// fill computes the reduced outputs the spec selects.
func (st *Stage) fill(c Collective, v View) error {
	minCost, overlap, err := v.Ground(c)
	if err != nil {
		return err
	}
	maxP, maxX, err := v.maxProb(c)
	if err != nil {
		return err
	}
	var cvar, probs []float64
	var variance float64
	if len(st.spec.CVaRAlphas) > 0 {
		if cvar, err = v.CVaR(c, st.spec.CVaRAlphas); err != nil {
			return err
		}
	}
	if st.spec.Variance {
		if variance, err = v.Variance(c); err != nil {
			return err
		}
	}
	if len(st.spec.ProbIndices) > 0 {
		if probs, err = v.probs(c, st.spec.ProbIndices); err != nil {
			return err
		}
	}
	if c.Rank() == 0 {
		o := st.out
		o.MinCost, o.Overlap, o.MaxProb, o.MaxProbIndex = minCost, overlap, maxP, maxX
		o.CVaR, o.Variance, o.Probs = cvar, variance, probs
	}
	return nil
}

// draw runs the two-stage shot draw chunk by chunk: every rank draws
// the rank of each shot from the replicated rank sampler and the winner
// writes its basis state into the shot's slot. A barrier then publishes
// the slots, the O(Shots) shot merge a cluster runs as a gather of
// indices, never of amplitudes. On the streaming path rank 0 delivers
// the chunk, and a second barrier holds every rank until fn returns,
// since the chunk is reused. The samplers persist across chunks, so
// chunking never perturbs a shot.
func (st *Stage) draw(ctx context.Context, c Collective, v View) error {
	rankSampler, draw, err := v.samplers(c, st.spec.Seed)
	if err != nil {
		return err
	}
	rank := c.Rank()
	for drawn := 0; drawn < st.spec.Shots; {
		if err := ctx.Err(); err != nil {
			return err
		}
		cur := st.chunk[:min(len(st.chunk), st.spec.Shots-drawn)]
		for i := range cur {
			if int(rankSampler.Sample()) == rank {
				cur[i] = draw()
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if st.fn != nil {
			if rank == 0 {
				st.fnErr = st.fn(cur)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if st.fnErr != nil {
				return st.fnErr
			}
		}
		drawn += len(cur)
	}
	return nil
}

// FillGroup completes a vector over all 2^n basis states from its first
// len(v)/len(group) entries, the stored indices in order: block t, the
// basis states whose top h bits are t, takes entry i ⊕ μ_t for its
// i-th entry, μ_t the stored-index part of group[t].
func FillGroup[E any](v []E, group []uint64) {
	size := len(v) / len(group)
	for t := 1; t < len(group); t++ {
		mu := int(group[t]) & (size - 1)
		blk := v[t*size : (t+1)*size]
		for i := range blk {
			blk[i] = v[i^mu]
		}
	}
}
