// Gather-free distributed outputs: sampling, CVaR, ground-state
// overlap, and per-index probability queries evaluated directly on the
// sharded state — the outputs that used to require Options.Gather, now
// served without ever materializing a node-scale buffer. This is what
// turns the §V-B memory-reduced representations (float32 shards,
// uint16-quantized diagonals) into full solver backends: every
// quantity below needs only |ψ_x|² and the cost of locally owned basis
// states, both of which each rank holds. The output stage runs inside
// the shared evolution (shard.evolve) over the rank's evolved planes.
//
// The three mechanisms:
//
//   - Two-stage alias sampling. One AllreduceSumVec combines the
//     per-rank probability masses into a K-entry rank distribution;
//     every rank builds the identical rank-level alias sampler from it
//     (same masses, same seed — replicated RNG, zero extra
//     communication), so all ranks agree on which rank wins each shot.
//     The winning rank draws the local index from its shard's alias
//     sampler and writes the global index (rank bits ‖ local index)
//     into the shot's slot. One barrier models the shot merge a real
//     cluster would run as a gather of O(Shots) indices — never
//     O(2^n) amplitudes.
//
//   - Distributed CVaR. Each rank sorts its positive-probability
//     entries by ascending cost once (the costOrder pattern of
//     internal/core/objectives.go, shard-local) and exposes prefix
//     sums of p and p·c. The global cost threshold c* — the smallest
//     cost value whose cumulative mass reaches α — is found by a
//     k-way threshold reduction: scalar-allreduce bisection on the
//     cost axis, then a snap step (AllreduceMin over each rank's next
//     actual cost value) so c* lands exactly on a spectrum point. The
//     closed form Σ_{cost<c*} p·c + (α − P(cost<c*))·c* then needs one
//     two-entry vector all-reduce. Tie mass at c* enters only through
//     the closed form, which is order-independent — that is why the
//     distributed value matches the single-node sweep to rounding.
//
//   - Overlap / probability queries. The feasible-subspace minimum is
//     one AllreduceMin, the overlap mass one AllreduceSum; a
//     ProbIndices query costs one vector all-reduce of len(queries)
//     entries, each filled by the owning rank.
package distsim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"qokit/internal/cluster"
	"qokit/internal/evaluator"
	"qokit/internal/poly"
	"qokit/internal/sampling"
)

// OutputSpec selects the gather-free outputs of one distributed
// evaluation (shared contract with the single-node engines).
type OutputSpec = evaluator.OutputSpec

// shardView is one rank's read-only view of its evolved shard for the
// output stage: probability and cost by local index, plus the rank's
// place in the global index space. It abstracts over the shard
// representations (float64 or float32 planes, float64 or quantized
// diagonal) — the whole output stage needs nothing else.
type shardView struct {
	size     int
	localN   int
	offset   uint64
	restrict bool
	hw       int
	prob     func(i int) float64
	cost     func(i int) float64
}

// feasible reports whether local index i lies in the mixer's feasible
// subspace (always true for the transverse-field mixer).
func (v *shardView) feasible(i int) bool {
	return !v.restrict || popcount64(v.offset|uint64(i)) == v.hw
}

func popcount64(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// rankGround returns the global (feasible-subspace) minimum cost and
// the probability mass on the states that attain it, on every rank.
// The xy mixers never leave the fixed-Hamming-weight subspace, so the
// argmin search is restricted to it, matching the single-node
// simulator.
func rankGround(c *cluster.Comm, v shardView) (gmin, overlap float64, err error) {
	localMin := math.Inf(1)
	for i := 0; i < v.size; i++ {
		if !v.feasible(i) {
			continue
		}
		if cv := v.cost(i); cv < localMin {
			localMin = cv
		}
	}
	if gmin, err = c.AllreduceMin(localMin); err != nil {
		return 0, 0, err
	}
	var ov float64
	for i := 0; i < v.size; i++ {
		if !v.feasible(i) {
			continue
		}
		if v.cost(i) <= gmin+1e-9 {
			ov += v.prob(i)
		}
	}
	overlap, err = c.AllreduceSum(ov)
	return gmin, overlap, err
}

// rankOutputs runs one rank's share of the gather-free output stage:
// ground-state overlap and minimum, the most probable state, then the
// spec's CVaR levels, probability queries, and sampled shots. Every
// rank executes the same collective sequence; rank 0 stores the
// (identical) reduced values into the shared res, and sampled shots
// are written into disjoint slots of res.Samples by their winning
// ranks. Safe to publish because Group.RunContext joins every rank
// before the caller reads res.
func rankOutputs(c *cluster.Comm, v shardView, spec OutputSpec, res *Result) error {
	rank := c.Rank()
	gmin, ovAll, err := rankGround(c, v)
	if err != nil {
		return err
	}

	// Most probable basis state: max over ranks, ties to the lowest
	// global index (float64 holds any n ≤ 34 index exactly).
	localMax, localArg := -1.0, 0
	for i := 0; i < v.size; i++ {
		if p := v.prob(i); p > localMax {
			localMax, localArg = p, i
		}
	}
	gmaxP, err := c.AllreduceMax(localMax)
	if err != nil {
		return err
	}
	cand := math.Inf(1)
	if localMax == gmaxP {
		cand = float64(v.offset | uint64(localArg))
	}
	argAll, err := c.AllreduceMin(cand)
	if err != nil {
		return err
	}
	if rank == 0 {
		res.MinCost = gmin
		res.Overlap = ovAll
		res.MaxProb = gmaxP
		res.MaxProbIndex = uint64(argAll)
	}

	if len(spec.CVaRAlphas) > 0 {
		cv, err := rankCVaR(c, v, spec.CVaRAlphas)
		if err != nil {
			return err
		}
		if rank == 0 {
			res.CVaR = cv
		}
	}

	if spec.Variance {
		vv, err := rankVariance(c, v)
		if err != nil {
			return err
		}
		if rank == 0 {
			res.Variance = vv
		}
	}

	if len(spec.ProbIndices) > 0 {
		buf := make([]float64, len(spec.ProbIndices))
		for j, q := range spec.ProbIndices {
			if q>>uint(v.localN) == uint64(rank) {
				buf[j] = v.prob(int(q & uint64(v.size-1)))
			}
		}
		if err := c.AllreduceSumVec(buf); err != nil {
			return err
		}
		if rank == 0 {
			res.Probs = buf
		}
	}

	if spec.Shots > 0 {
		if err := rankSample(c, v, spec, res.Samples); err != nil {
			return err
		}
	}
	return nil
}

// rankSample is the two-stage distributed alias draw. Stage 1 picks
// the winning rank per shot from the allreduced rank-mass vector; the
// rank-level sampler is built identically on every rank (same masses,
// same seed), so the choice replicates with no further communication.
// Stage 2 draws the local index on the winning rank only, from a
// shard-local alias sampler over |ψ|², and writes the global index
// into the shot's slot. Zero-mass shards never win stage 1 and build
// no sampler. The closing barrier models the O(Shots) shot merge.
func rankSample(c *cluster.Comm, v shardView, spec OutputSpec, samples []uint64) error {
	rankSampler, local, err := shotSamplers(c, v, spec.Seed)
	if err != nil {
		return err
	}
	for j := range samples {
		if int(rankSampler.Sample()) == c.Rank() {
			samples[j] = v.offset | local.Sample()
		}
	}
	return c.Barrier()
}

// shotSamplers builds the two stages of the distributed draw: the
// rank-level sampler over the allreduced rank masses (seed, identical
// on every rank) and this rank's shard sampler over |ψ|² (seed+rank+1;
// nil for a zero-mass shard, which never wins stage 1).
func shotSamplers(c *cluster.Comm, v shardView, seed int64) (rankSampler, local *sampling.Sampler, err error) {
	rank := c.Rank()
	localProbs := make([]float64, v.size)
	var mass float64
	for i := range localProbs {
		p := v.prob(i)
		localProbs[i] = p
		mass += p
	}
	masses := make([]float64, c.Size())
	masses[rank] = mass
	if err := c.AllreduceSumVec(masses); err != nil {
		return nil, nil, err
	}
	if rankSampler, err = sampling.NewSampler(masses, seed); err != nil {
		return nil, nil, fmt.Errorf("distsim: rank-mass distribution: %w", err)
	}
	if mass > 0 {
		if local, err = sampling.NewSampler(localProbs, seed+int64(rank)+1); err != nil {
			return nil, nil, fmt.Errorf("distsim: rank %d shard distribution: %w", rank, err)
		}
	}
	return rankSampler, local, nil
}

// rankVariance computes Var(C) over the measurement distribution with
// the distributed second-moment scheme: each rank runs the same
// weighted Welford recurrence core.costVariance uses over its own
// shard, the per-rank (weight, mean, M2) triples travel in disjoint
// slots of one 3K-entry AllreduceSumVec, and every rank folds the K
// triples in rank order with Chan's pairwise merge
//
//	W = Wa + Wb;  δ = mb − ma;  mean = ma + δ·Wb/W
//	M2 = M2a + M2b + δ²·Wa·Wb/W
//
// so all ranks hold the identical value without gathering a single
// amplitude. The fold order is fixed (rank 0, 1, …), which makes the
// result deterministic across runs and rank counts up to rounding.
func rankVariance(c *cluster.Comm, v shardView) (float64, error) {
	rank, size := c.Rank(), c.Size()
	var w, mean, m2 float64
	for i := 0; i < v.size; i++ {
		p := v.prob(i)
		if p == 0 {
			continue
		}
		cv := v.cost(i)
		w += p
		delta := cv - mean
		mean += delta * p / w
		m2 += p * delta * (cv - mean)
	}
	triples := make([]float64, 3*size)
	triples[3*rank], triples[3*rank+1], triples[3*rank+2] = w, mean, m2
	if err := c.AllreduceSumVec(triples); err != nil {
		return 0, err
	}
	var gw, gmean, gm2 float64
	for r := 0; r < size; r++ {
		wb, mb, m2b := triples[3*r], triples[3*r+1], triples[3*r+2]
		if wb == 0 {
			continue
		}
		wn := gw + wb
		delta := mb - gmean
		gmean += delta * wb / wn
		gm2 += m2b + delta*delta*gw*wb/wn
		gw = wn
	}
	if gw == 0 {
		return 0, nil
	}
	return gm2 / gw, nil
}

// rankCVaR evaluates CVaR at every requested level via per-rank
// ascending-cost prefix sums merged by a k-way threshold reduction.
// All ranks return the identical slice.
func rankCVaR(c *cluster.Comm, v shardView, alphas []float64) ([]float64, error) {
	// Shard-local ascending-cost order over positive-probability
	// entries (the costOrder pattern, restricted to this rank's slice),
	// with inclusive prefix sums of p and p·c.
	costs := make([]float64, 0, v.size)
	probs := make([]float64, 0, v.size)
	for i := 0; i < v.size; i++ {
		if p := v.prob(i); p > 0 {
			costs = append(costs, v.cost(i))
			probs = append(probs, p)
		}
	}
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return costs[order[a]] < costs[order[b]] })
	sortedCosts := make([]float64, len(order))
	cumP := make([]float64, len(order))
	cumPC := make([]float64, len(order))
	var p, pc float64
	for j, i := range order {
		p += probs[i]
		pc += probs[i] * costs[i]
		sortedCosts[j] = costs[i]
		cumP[j] = p
		cumPC[j] = pc
	}
	// massLE(x) is this rank's P(cost ≤ x); the lt variants are the
	// strict prefix the closed form needs.
	massLE := func(x float64) float64 {
		j := sort.Search(len(sortedCosts), func(i int) bool { return sortedCosts[i] > x })
		if j == 0 {
			return 0
		}
		return cumP[j-1]
	}
	massLT := func(x float64) (pl, pcl float64) {
		j := sort.SearchFloat64s(sortedCosts, x)
		if j == 0 {
			return 0, 0
		}
		return cumP[j-1], cumPC[j-1]
	}

	// Global aggregates: total mass, total p·c, and the positive-
	// probability cost range (±Inf sentinels for empty shards).
	agg := []float64{p, pc}
	if err := c.AllreduceSumVec(agg); err != nil {
		return nil, err
	}
	total, totalPC := agg[0], agg[1]
	localMinPos, localMaxPos := math.Inf(1), math.Inf(-1)
	if len(sortedCosts) > 0 {
		localMinPos, localMaxPos = sortedCosts[0], sortedCosts[len(sortedCosts)-1]
	}
	gminPos, err := c.AllreduceMin(localMinPos)
	if err != nil {
		return nil, err
	}
	gmaxPos, err := c.AllreduceMax(localMaxPos)
	if err != nil {
		return nil, err
	}

	out := make([]float64, len(alphas))
	for ai, alpha := range alphas {
		if alpha > total {
			// The sweep consumes every positive-probability entry; any
			// shortfall beyond rounding is charged at the largest cost
			// actually carrying mass — the fixed single-node semantics.
			acc := totalPC
			if alpha-total > 1e-12 && !math.IsInf(gmaxPos, -1) {
				acc += (alpha - total) * gmaxPos
			}
			out[ai] = acc / alpha
			continue
		}
		// Threshold reduction: bisect the cost axis on the allreduced
		// cumulative mass, keeping the invariant F(lo) < α ≤ F(hi).
		lo, hi := gminPos-1, gmaxPos
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
		// Snap to an actual spectrum point: the smallest positive-
		// probability cost in (lo, hi] across ranks. The bisected
		// interval is a few ULPs wide, so this loop visits at most the
		// handful of distinct cost values left inside it.
		cstar := hi
		for {
			next := math.Inf(1)
			if j := sort.Search(len(sortedCosts), func(i int) bool { return sortedCosts[i] > lo }); j < len(sortedCosts) && sortedCosts[j] <= hi {
				next = sortedCosts[j]
			}
			c1, err := c.AllreduceMin(next)
			if err != nil {
				return nil, err
			}
			if math.IsInf(c1, 1) {
				break // no spectrum point left; keep hi (F(hi) ≥ α)
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
		// Closed form: everything strictly below c* enters whole, the
		// remainder of the α budget is charged at c*.
		pl, pcl := massLT(cstar)
		pair := []float64{pl, pcl}
		if err := c.AllreduceSumVec(pair); err != nil {
			return nil, err
		}
		out[ai] = (pair[1] + (alpha-pair[0])*cstar) / alpha
	}
	return out, nil
}

// SimulateQAOAOutputs runs the distributed forward pipeline and
// serves the gather-free outputs the spec selects — sampling, CVaR,
// overlap, probability queries — on any shard representation
// (float64, float32, quantized): one lease of a fresh GradEngine. It
// is the output path the Gather-rejection errors point at: nothing
// here materializes a node-scale buffer, so it composes with every
// §V-B memory reduction. Options.Gather must be false (gathering is
// exactly what this entry point exists to avoid).
func SimulateQAOAOutputs(ctx context.Context, n int, terms poly.Terms, gamma, beta []float64, opts Options, spec OutputSpec) (*Result, error) {
	if opts.Gather {
		return nil, fmt.Errorf("distsim: Options.Gather=true is redundant with SimulateQAOAOutputs — the outputs are computed shard-locally; use SimulateQAOA for a gathered state")
	}
	if err := spec.Validate(n); err != nil {
		return nil, err
	}
	eng, err := NewGradEngine(n, terms, opts)
	if err != nil {
		return nil, err
	}
	res, err := eng.Outputs(ctx, gamma, beta, spec)
	if err != nil {
		return nil, err
	}
	res.Comm, res.PerRank = eng.Counters(), eng.perRank()
	return res, nil
}

// Outputs evaluates the gather-free outputs at (γ, β) on a leased rank
// group — the engine-resident counterpart of SimulateQAOAOutputs, with
// warm per-rank state buffers and the engine's shared diagonal
// representation. Safe for up to Options.Concurrency concurrent calls.
// Communication accumulates on the engine's counters (Counters /
// RankCounters); Result.Comm and Result.PerRank are left zero here.
func (e *GradEngine) Outputs(ctx context.Context, gamma, beta []float64, spec OutputSpec) (*Result, error) {
	if err := spec.Validate(e.n); err != nil {
		return nil, err
	}
	res := &Result{}
	if spec.Shots > 0 {
		res.Samples = make([]uint64, spec.Shots)
	}
	err := e.eval(ctx, &run{
		gamma: gamma, beta: beta, energy: &res.Expectation,
		outputs: func(c *cluster.Comm, v shardView) error { return rankOutputs(c, v, spec, res) },
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// The distributed engine also serves the chunked sampling contract:
// shot counts beyond MaxShotsPerRequest stream through one
// SampleChunkSize buffer instead of pinning an O(Shots) slice per
// request.
var _ evaluator.SampleStreamer = (*GradEngine)(nil)

// StreamSamples evolves the sharded state at the flat parameter vector
// once and streams spec.Shots sampled global basis indices to fn in
// chunks of at most evaluator.SampleChunkSize, drawn by the same
// two-stage distributed alias scheme as the buffered path: the
// replicated rank-level sampler (seed spec.Seed) picks each shot's
// winning rank, the winner draws the local index from its shard
// sampler (seed spec.Seed+rank+1, advanced only on wins) and writes
// the chunk slot. The samplers persist across chunks, so the
// concatenated chunks are exactly the Outputs.Samples sequence
// EvalOutputs returns for the same spec — chunking never perturbs a
// shot. Per chunk, one barrier publishes the slots before rank 0
// delivers the chunk to fn, and a second one holds every rank back
// until fn returns, since the buffer is reused; fn therefore runs
// once per chunk on a single rank, and a non-nil fn error aborts all
// ranks and is returned verbatim.
func (e *GradEngine) StreamSamples(ctx context.Context, x []float64, spec evaluator.OutputSpec, fn func(chunk []uint64) error) error {
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return err
	}
	if err := spec.ValidateStreaming(e.n); err != nil {
		return err
	}
	if spec.Shots == 0 {
		return nil
	}
	chunkLen := evaluator.SampleChunkSize
	if spec.Shots < chunkLen {
		chunkLen = spec.Shots
	}
	chunk := make([]uint64, chunkLen)
	var fnErr error // written by rank 0 between the per-chunk barriers
	stream := func(c *cluster.Comm, view shardView) error {
		rank := c.Rank()
		rankSampler, local, err := shotSamplers(c, view, spec.Seed)
		if err != nil {
			return err
		}
		for drawn := 0; drawn < spec.Shots; {
			cur := chunk
			if rem := spec.Shots - drawn; rem < len(cur) {
				cur = cur[:rem]
			}
			for i := range cur {
				if int(rankSampler.Sample()) == rank {
					cur[i] = view.offset | local.Sample()
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if rank == 0 {
				if err := fn(cur); err != nil {
					fnErr = err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if fnErr != nil {
				return fnErr
			}
			drawn += len(cur)
		}
		return nil
	}
	return e.eval(ctx, &run{gamma: gamma, beta: beta, outputs: stream})
}

// The distributed engine also implements the optional output contract,
// so a serving layer schedules sampling and CVaR requests over rank-
// group leases exactly like energy requests.
var _ evaluator.OutputEvaluator = (*GradEngine)(nil)

// EvalOutputs evolves the state at the flat parameter vector once and
// returns the spec's outputs (evaluator.OutputEvaluator).
func (e *GradEngine) EvalOutputs(ctx context.Context, x []float64, spec evaluator.OutputSpec) (*evaluator.Outputs, error) {
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return nil, err
	}
	res, err := e.Outputs(ctx, gamma, beta, spec)
	if err != nil {
		return nil, err
	}
	return &evaluator.Outputs{
		Energy:       res.Expectation,
		Overlap:      res.Overlap,
		MinCost:      res.MinCost,
		CVaR:         res.CVaR,
		Samples:      res.Samples,
		Probs:        res.Probs,
		MaxProbIndex: res.MaxProbIndex,
		MaxProb:      res.MaxProb,
		Variance:     res.Variance,
	}, nil
}
