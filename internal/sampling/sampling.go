// Package sampling draws measurement outcomes from a simulated QAOA
// state. On hardware, QAOA's output is a stream of sampled bitstrings;
// the quantities the paper's companion studies build on — expected
// solution quality from finite shots, and the expected number of
// samples before the optimal solution appears (the time-to-solution
// metric of the LABS scaling analysis the paper enables, Refs. [5],
// [6]) — are estimated from exactly this sampling process.
//
// The sampler uses Walker's alias method: O(2^n) preprocessing, O(1)
// per draw, which matters when millions of shots are drawn from a
// 2^n-point distribution.
package sampling

import (
	"fmt"
	"math"
	"math/rand"
)

// Sampler draws indices from a fixed discrete distribution.
//
// A Sampler is NOT safe for concurrent use: every draw mutates the
// shared rand.Rand. Concurrent consumers (the serve pool's workers, a
// sharded sampling stage) must each hold their own sampler.
type Sampler struct {
	prob  []float64 // alias-method acceptance probabilities
	alias []int
	rng   *rand.Rand
}

// NewSampler builds a seeded sampler over probs (non-negative; any
// positive total is normalized away, so unnormalized |ψ|² vectors are
// accepted directly). probs is only read.
func NewSampler(probs []float64, seed int64) (*Sampler, error) {
	return NewSamplerFunc(len(probs), func(i int) float64 { return probs[i] }, seed)
}

// NewSamplerFunc is NewSampler over the n masses mass(0), …, mass(n−1),
// read in place instead of from a slice: a caller whose masses are a
// function of its own storage (a state's |ψ_i|²) builds the tables
// without copying them out first. mass must return the same value for
// an index on every call; it is read twice per index.
func NewSamplerFunc(n int, mass func(i int) float64, seed int64) (*Sampler, error) {
	if n == 0 {
		return nil, fmt.Errorf("sampling: empty distribution")
	}
	var total float64
	for i := 0; i < n; i++ {
		p := mass(i)
		if p < 0 || math.IsNaN(p) {
			return nil, fmt.Errorf("sampling: probability %v at index %d", p, i)
		}
		total += p
	}
	if total <= 0 {
		return nil, fmt.Errorf("sampling: zero total probability")
	}

	// Walker alias construction: scale to mean 1, split into small
	// (< 1) and large (≥ 1) buckets, pair them off. prob holds the
	// scaled values until an entry is paired, which fixes it. Both
	// bucket stacks share one n-entry worklist, small growing from the
	// front and large from the back: every index sits in at most one.
	s := &Sampler{
		prob:  make([]float64, n),
		alias: make([]int, n),
		rng:   rand.New(rand.NewSource(seed)),
	}
	work := make([]int, n)
	ns, nl := 0, 0 // small = work[:ns], large = work[n-nl:], tops at ns−1 and n−nl
	for i := range s.prob {
		s.prob[i] = mass(i) * float64(n) / total
		if s.prob[i] < 1 {
			work[ns] = i
			ns++
		} else {
			nl++
			work[n-nl] = i
		}
	}
	for ns > 0 && nl > 0 {
		ns--
		l := work[ns]
		g := work[n-nl]
		s.alias[l] = g
		s.prob[g] = s.prob[g] + s.prob[l] - 1
		if s.prob[g] < 1 {
			nl--
			work[ns] = g
			ns++
		}
	}
	for _, i := range work[n-nl:] {
		s.prob[i] = 1
		s.alias[i] = i
	}
	for _, i := range work[:ns] {
		s.prob[i] = 1
		s.alias[i] = i
	}
	return s, nil
}

// Sample draws one index.
func (s *Sampler) Sample() uint64 {
	i := s.rng.Intn(len(s.prob))
	if s.rng.Float64() < s.prob[i] {
		return uint64(i)
	}
	return uint64(s.alias[i])
}

// EstimateExpectation returns the sample mean and standard error of
// cost over the samples — the finite-shot estimate of ⟨ψ|Ĉ|ψ⟩ a
// hardware run would produce. The variance is accumulated with
// Welford's online update: the textbook sumSq − sum²/n form cancels
// catastrophically when |mean| ≫ stddev (a large constant cost offset
// would turn the standard error into noise, or a negative number),
// while Welford's recurrence subtracts the running mean before
// squaring and stays accurate at any offset.
func EstimateExpectation(samples []uint64, cost func(uint64) float64) (mean, stderr float64) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	var m2 float64
	for i, x := range samples {
		c := cost(x)
		d := c - mean
		mean += d / float64(i+1)
		m2 += d * (c - mean)
	}
	if n > 1 {
		variance := m2 / float64(n-1)
		if variance > 0 {
			stderr = math.Sqrt(variance / float64(n))
		}
	}
	return mean, stderr
}

// SamplesToSolution returns the expected number of independent shots
// needed to observe an optimal solution at least once with the given
// confidence, from the state's ground-state overlap p:
//
//	N = ln(1 − confidence) / ln(1 − p).
//
// This is the shots side of the time-to-solution metric in the LABS
// scaling analysis (Ref. [6]) and the sampling-frequency-threshold
// question of Ref. [5].
//
// Domain semantics: overlap ≤ 0 returns +Inf (the optimum is never
// sampled), overlap ≥ 1 returns 1 (every shot is optimal) — both
// without error, since they are legitimate limits that overlap
// estimates reach through rounding. A NaN overlap and a confidence
// outside (0, 1) are caller bugs and return an error; nothing is
// silently rewritten.
func SamplesToSolution(overlap, confidence float64) (float64, error) {
	if math.IsNaN(overlap) {
		return 0, fmt.Errorf("sampling: SamplesToSolution overlap is NaN")
	}
	if math.IsNaN(confidence) || confidence <= 0 || confidence >= 1 {
		return 0, fmt.Errorf("sampling: SamplesToSolution confidence %v outside (0, 1)", confidence)
	}
	if overlap <= 0 {
		return math.Inf(1), nil
	}
	if overlap >= 1 {
		return 1, nil
	}
	return math.Log(1-confidence) / math.Log(1-overlap), nil
}
