// Package costvec implements the paper's central optimization
// (§III-A): precomputing the diagonal of the problem Hamiltonian
// Ĉ = Σ_x f(x)|x⟩⟨x| as a 2^n cost vector. The precomputed diagonal
// turns the QAOA phase operator into one elementwise multiply and the
// QAOA objective into one inner product, and is reused across every
// layer and every objective evaluation during parameter optimization.
//
// The package provides
//   - serial and worker-pool precomputation from compiled polynomial
//     terms: a blocked Walsh–Hadamard transform of the term weights
//     when they sum exactly, else a branch-free XOR+popcount loop, both
//     bit-identical to summing the terms entry by entry, plus a
//     paper-faithful one-kernel-per-term variant for ablation,
//   - range-sliced precomputation for the distributed simulator
//     (each rank computes its slice with no communication, §III-C),
//   - a uint16 code store for diagonals on an exact power-of-two grid,
//     reproducing the paper's §V-B memory optimization (state 16
//     B/amplitude, costs 2 B/amplitude ⇒ +12.5%), and
//   - phase lookup tables over the 2^16 code space so the phase
//     operator on such a grid replaces per-amplitude sin/cos with table
//     reads.
package costvec

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"qokit/internal/poly"
	"qokit/internal/statevec"
)

// Precompute evaluates the cost diagonal serially: the "CPU
// precompute" path of the paper's Fig. 4.
func Precompute(c poly.Compiled, n int) []float64 {
	diag := make([]float64, 1<<uint(n))
	PrecomputeRange(c, 0, diag)
	return diag
}

// PrecomputePool evaluates the cost diagonal on the worker-pool
// engine: the "GPU precompute" path of Fig. 4. Each worker fills a
// contiguous run of whole blocks, so the result is Precompute's bit
// for bit.
func PrecomputePool(p *statevec.Pool, c poly.Compiled, n int) []float64 {
	diag := make([]float64, 1<<uint(n))
	if !exactSums(c.Weights) {
		p.Run(len(diag), func(lo, hi int) { sumTerms(c, uint64(lo), diag[lo:hi]) })
		return diag
	}
	b := min(n, blockBits)
	p.RunTasks(len(diag)>>uint(b), len(diag), func(lo, hi int) {
		transformBlocks(c, uint64(lo)<<uint(b), diag[lo<<uint(b):hi<<uint(b)], b)
	})
	return diag
}

// PrecomputeRange fills out[i] = f(offset + i) for the compiled terms:
// the building block for distributed precomputation, where rank r
// computes the slice starting at r·2^{n−k} locally (the paper's
// locality argument: precomputation needs no communication). Any
// offset and length give the same bits as the same entries of
// Precompute.
func PrecomputeRange(c poly.Compiled, offset uint64, out []float64) {
	if !exactSums(c.Weights) {
		sumTerms(c, offset, out)
		return
	}
	// The largest block, at most 2^blockBits, that divides both the
	// offset and the length.
	b := bits.TrailingZeros64(offset | uint64(len(out)) | 1<<blockBits)
	transformBlocks(c, offset, out, b)
}

// The diagonal takes one of two routes, picked by the weights alone.
//
// f(x) = Σ_k w_k·(−1)^{|x ∧ m_k|} is the unnormalized Walsh–Hadamard
// transform (WHT) of the coefficient vector that holds w_k at index
// m_k. When the weights sum exactly (exactSums), transformBlocks fills
// each 2^b-aligned block at offset o as a WHT over the block's low b
// bits: term k adds (−1)^{|o ∧ m_k|}·w_k to coefficient m_k mod 2^b,
// and b butterfly stages finish the block. That is about b·2^n
// additions plus |T|·2^(n−b) folds, against |T|·2^n for the term loop.
// Every value the fold and the butterflies form is a signed sum of
// distinct weights, exact in any order, so each entry is the exact
// f(x) whatever the block size.
//
// Other weights take sumTerms, the per-entry loop in term order, which
// rounds as poly.Compiled.Eval does. A WHT would round differently for
// each block size, so a distributed rank's slice would stop matching
// the same slice of the whole diagonal.
//
// Neither route forms −0: sums start at +0, and in round-to-nearest
// x + (−x) is +0.

// blockBits is log2 of the exact route's largest block: 2^12 float64
// entries, 32 KiB, which stays in cache through the butterfly stages.
const blockBits = 12

// exactSums reports whether every signed sum of distinct weights, in
// any order of addition, is exact: every weight is finite and, with
// 2^e the largest power of two dividing all of them, Σ|w_k| = S·2^e
// with integer S < 2^53 and Σ|w_k| < 2^1024. Every partial sum is then
// a multiple of 2^e no larger than Σ|w_k| in magnitude, which binary64
// represents. Integer (LABS), half-integer (unweighted MaxCut) and
// other dyadic weights pass; Gaussian or decimal weights fail.
func exactSums(weights []float64) bool {
	e := math.MaxInt // the grid exponent, once a weight is nonzero
	for _, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return false
		}
		if w != 0 {
			_, q := oddMantissa(w)
			e = min(e, q)
		}
	}
	var sum uint64 // Σ|w_k| / 2^e
	for _, w := range weights {
		if w == 0 {
			continue
		}
		m, q := oddMantissa(w)
		if bits.Len64(m)+q-e > 53 {
			return false // this weight alone is 2^53 grid steps or more
		}
		if sum += m << uint(q-e); sum >= 1<<53 {
			return false
		}
	}
	return sum == 0 || bits.Len64(sum)+e <= 1024
}

// oddMantissa splits a finite nonzero w into |w| = m·2^q with m odd.
func oddMantissa(w float64) (m uint64, q int) {
	frac, exp := math.Frexp(math.Abs(w))
	m = uint64(math.Ldexp(frac, 53)) // frac ∈ [½, 1) has at most 53 significant bits
	tz := bits.TrailingZeros64(m)
	return m >> uint(tz), exp - 53 + tz
}

// transformBlocks fills out[i] = f(offset + i) one 2^b-entry block at a
// time (the exact route); offset and len(out) are multiples of 2^b.
func transformBlocks(c poly.Compiled, offset uint64, out []float64, b int) {
	size := 1 << uint(b)
	low := uint64(size - 1)
	weights := c.Weights[:len(c.Masks)]
	for lo := 0; lo < len(out); lo += size {
		blk := out[lo : lo+size]
		o := offset + uint64(lo)
		clear(blk)
		for k, m := range c.Masks {
			blk[m&low] += signed(weights[k], o&m)
		}
		wht(blk)
	}
}

// wht runs the unnormalized Walsh–Hadamard transform in place: one
// butterfly stage (u, v) → (u+v, u−v) per index bit.
func wht(a []float64) {
	for h := 1; h < len(a); h <<= 1 {
		for i := 0; i < len(a); i += 2 * h {
			x, y := a[i:i+h], a[i+h:i+2*h]
			for j, u := range x {
				v := y[j]
				x[j], y[j] = u+v, u-v
			}
		}
	}
}

// sumTerms fills out[i] = f(offset + i) by the per-entry loop over the
// terms in order (the route for weights that fail exactSums).
func sumTerms(c poly.Compiled, offset uint64, out []float64) {
	weights := c.Weights[:len(c.Masks)]
	for i := range out {
		x := offset + uint64(i)
		var f float64
		for k, m := range c.Masks {
			f += signed(weights[k], x&m)
		}
		out[i] = f
	}
}

// signed returns w, negated when x has odd parity, without a branch:
// the parity flips the sign bit. f + (−w) and f − w are the same IEEE
// operation, so for any weight but NaN the sums match a branching
// loop's bit for bit.
func signed(w float64, x uint64) float64 {
	return math.Float64frombits(math.Float64bits(w) ^ uint64(bits.OnesCount64(x))<<63)
}

// CheckDiagonal scans a full 2^n diagonal once, reading each
// complement pair (x, x̄) together. It returns an error wrapping
// poly.ErrNonFiniteCost that names a NaN or ±Inf entry, and otherwise
// reports whether diag[x] == diag[x̄] bitwise for every x: the flip
// symmetry that lets the distributed engine hold half shards. The
// single-node engine hands that report to SymmetryPivots, which
// searches the wider symmetry group. Only weights that fail exactSums
// can overflow to ±Inf.
func CheckDiagonal(diag []float64) (symmetric bool, err error) {
	mask := len(diag) - 1
	symmetric = true
	// x ≤ mask/2 visits each pair once, and the lone entry of n = 0.
	for x := 0; x <= mask>>1; x++ {
		a, b := diag[x], diag[x^mask]
		if !finite(a) || !finite(b) {
			if finite(a) {
				x, a = x^mask, b
			}
			return false, fmt.Errorf("%w: diagonal entry %d is %v", poly.ErrNonFiniteCost, x, a)
		}
		symmetric = symmetric && math.Float64bits(a) == math.Float64bits(b)
	}
	return symmetric, nil
}

// searchPasses bounds SymmetryPivots to 4·2^n diagonal reads beyond
// CheckDiagonal's pass, so a diagonal with many entries equal to
// diag[0] costs a few passes, not one pass per candidate.
const searchPasses = 4

// SymmetryPivots searches the XOR-symmetry group of a 2^n diagonal,
// H = {m : diag[x ⊕ m] == diag[x] bitwise for every x}, for pivots: it
// returns h elements, pivots[j] ∈ H for j < h, whose top h bits are bit
// n−h+j alone and whose lower n−h bits μ_j are not all zero. A state
// that every element of H leaves unchanged (as QAOA with the x mixer
// and the |+⟩ start does) is then fixed by its 2^(n−h) amplitudes whose
// top h bits are zero, and qubit n−h+j's RX pairs stored index i with
// i ⊕ μ_j. LABS gives h = 2 (H holds the complement and the
// alternating flips); MaxCut and SK give h = 1 with the complement.
//
// flip is CheckDiagonal's report for diag. The search is
// deterministic. For each leading bit l from n−1 down, it looks for an
// element of H with that leading bit: it walks the candidates
// m ∈ [2^l, 2^(l+1)) from the top, and each m with diag[m] == diag[0]
// is verified over every pair (x, x ⊕ m), stopping at the first
// mismatch; the first candidate, the complement 1…1, is decided by
// flip instead of read again. It takes the first l with no element as
// the end of the pivots and reduces them so that each top part is a
// single bit. A pivot whose μ is zero (a qubit the cost ignores) takes a
// lower-only element of H when one is found, else h drops by one.
// Every read counts against a budget of searchPasses·2^n; when it runs
// out, the pivots found so far stand, so h is the largest the budget
// establishes. h ≤ n−1, and h = 0 (nil) keeps the full state.
func SymmetryPivots(diag []float64, flip bool) []uint64 {
	pivots, _ := symmetryPivots(diag, flip, searchPasses*len(diag))
	return pivots
}

// symmetryPivots is SymmetryPivots with an explicit read budget; it
// also returns the reads spent.
func symmetryPivots(diag []float64, flip bool, budget int) ([]uint64, int) {
	n := bits.Len(uint(len(diag))) - 1
	s := &groupSearch{diag: diag, flip: flip, budget: budget}
	// basis[i] has leading bit n−1−i.
	var basis []uint64
	for l := n - 1; l >= 1; l-- {
		g := s.find(l)
		if g == 0 {
			break
		}
		basis = append(basis, g)
	}
	h := len(basis)
	// Clear the lower pivots' leading bits from the higher pivots,
	// bottom up, so that each top part is its own bit.
	for i := h - 2; i >= 0; i-- {
		for j := i + 1; j < h; j++ {
			if basis[i]>>uint(n-1-j)&1 == 1 {
				basis[i] ^= basis[j]
			}
		}
	}
	if zeroLower(basis, n-h) {
		// A lower-only element of H gives every coset a nonzero μ. The
		// loop above already found none with leading bit n−h−1, unless
		// it stopped at bit 1 with h = n−1.
		from := n - h - 2
		if h == n-1 {
			from = 0
		}
		var low uint64
		for l := from; l >= 0 && low == 0; l-- {
			low = s.find(l)
		}
		if low == 0 && h > 0 {
			// Without one, the lowest pivot becomes the lower-only
			// element of h−1.
			h--
			low, basis = basis[h], basis[:h]
		}
		for i, g := range basis {
			if g&(1<<uint(n-h)-1) == 0 {
				basis[i] ^= low
			}
		}
	}
	// Pivot j carries qubit n−h+j, basis[h−1−j]'s leading bit.
	var pivots []uint64
	for i := h - 1; i >= 0; i-- {
		pivots = append(pivots, basis[i])
	}
	return pivots, s.reads
}

// zeroLower reports whether some element of basis has no bit below
// bit low set.
func zeroLower(basis []uint64, low int) bool {
	for _, g := range basis {
		if g&(1<<uint(low)-1) == 0 {
			return true
		}
	}
	return false
}

// groupSearch is the state of one SymmetryPivots search: the diagonal,
// whether its complement is a symmetry, the read budget and the reads
// spent.
type groupSearch struct {
	diag   []float64
	flip   bool
	budget int
	reads  int
}

// find returns the largest element of the symmetry group whose leading
// bit is l, or 0 when there is none or the budget runs out first.
func (s *groupSearch) find(l int) uint64 {
	want := math.Float64bits(s.diag[0])
	for m := 2<<uint(l) - 1; m >= 1<<uint(l); m-- {
		if m == len(s.diag)-1 {
			if s.flip {
				return uint64(m)
			}
			continue
		}
		if !s.spend(1) {
			return 0
		}
		if math.Float64bits(s.diag[m]) == want && s.verify(m, l) {
			return uint64(m)
		}
	}
	return 0
}

// spend counts k more reads, or reports false, reading nothing more,
// once they would exceed the budget.
func (s *groupSearch) spend(k int) bool {
	if s.reads+k > s.budget {
		s.budget = s.reads
		return false
	}
	s.reads += k
	return true
}

// verify reports whether diag[x] == diag[x ⊕ m] bitwise for every x,
// reading each pair once from the x with bit l (m's leading bit) clear
// and stopping at the first mismatch or when the budget runs out.
func (s *groupSearch) verify(m, l int) bool {
	d := s.diag
	step := 2 << uint(l)
	for base := 0; base < len(d); base += step {
		for x := base; x < base+step/2; x++ {
			if !s.spend(2) {
				return false
			}
			if math.Float64bits(d[x]) != math.Float64bits(d[x^m]) {
				return false
			}
		}
	}
	return true
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// PrecomputeTermKernels is the paper-faithful variant: one data-
// parallel kernel launch per term, each accumulating into the diagonal
// in place ("iterate over terms in T, applying a GPU kernel in-parallel
// for each element of the array"). On a CPU the fused PrecomputePool
// is strictly better (one write per element instead of |T|); this
// variant exists as the ablation target measuring that choice.
func PrecomputeTermKernels(p *statevec.Pool, c poly.Compiled, n int) []float64 {
	diag := make([]float64, 1<<uint(n))
	for k, m := range c.Masks {
		w := c.Weights[k]
		p.Run(len(diag), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if bits.OnesCount64(uint64(i)&m)&1 == 1 {
					diag[i] -= w
				} else {
					diag[i] += w
				}
			}
		})
	}
	return diag
}

// FromFunc fills the diagonal from an arbitrary cost callback, the
// analogue of QOKit's Python-lambda input path.
func FromFunc(n int, f func(x uint64) float64) []float64 {
	diag := make([]float64, 1<<uint(n))
	for i := range diag {
		diag[i] = f(uint64(i))
	}
	return diag
}

// MinMax returns the extreme values of the diagonal.
func MinMax(diag []float64) (lo, hi float64) {
	if len(diag) == 0 {
		return 0, 0
	}
	lo, hi = diag[0], diag[0]
	for _, v := range diag[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// GroundStates returns every index whose cost is within tol of the
// minimum — the solution set used by the overlap output (the paper's
// get_overlap measures probability mass on these states).
func GroundStates(diag []float64, tol float64) []uint64 {
	if len(diag) == 0 {
		return nil
	}
	lo, _ := MinMax(diag)
	var states []uint64
	for i, v := range diag {
		if v <= lo+tol {
			states = append(states, uint64(i))
		}
	}
	return states
}

// Quantized is the uint16-compressed cost diagonal of §V-B: value_i =
// Min + Scale·Codes[i]. Scale 0 is the degenerate constant-diagonal
// representation: every code is 0 and every value is exactly Min.
type Quantized struct {
	Codes []uint16
	Min   float64
	Scale float64
}

// autoScales is the power-of-two step ladder QuantizeExact walks, from
// coarsest to finest.
var autoScales = []float64{1, 0.5, 0.25, 0.125, 0.0625}

// QuantizeExact returns the uint16 codes of a diagonal that lies on a
// power-of-two grid: at the coarsest autoScales step that works (Scale
// 0 for a constant diagonal), every diag[x] equals Min + Scale·Codes[x]
// bit for bit, with at most maxLevels grid points (MaxCode < maxLevels).
// It fails on any other diagonal. The engines use it to decide whether
// a diagonal takes per-γ phase tables — sincos of a level is then the
// sincos of the very value the diagonal stores — and distsim shards to
// keep the codes alone.
func QuantizeExact(diag []float64, maxLevels int) (*Quantized, error) {
	lo, hi := MinMax(diag)
	if hi == lo {
		return quantize(diag, lo, 0)
	}
	maxLevels = min(maxLevels, 1<<16)
	lastErr := fmt.Errorf("costvec: range %v needs more than %d levels at every scale", hi-lo, maxLevels)
	for _, scale := range autoScales {
		if (hi-lo)/scale >= float64(maxLevels) {
			// Finer rungs only need more levels.
			break
		}
		q, err := quantize(diag, lo, scale)
		if err == nil {
			return q, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("costvec: no exact power-of-two quantization found: %w", lastErr)
}

// quantize assigns the codes of the grid lo + scale·k, failing unless
// every value equals its level bit for bit as Value computes it.
func quantize(diag []float64, lo, scale float64) (*Quantized, error) {
	q := &Quantized{Codes: make([]uint16, len(diag)), Min: lo, Scale: scale}
	for i, v := range diag {
		var k float64
		if scale > 0 {
			k = math.Round((v - lo) / scale)
		}
		if w := lo + scale*k; w != v || math.Signbit(w) != math.Signbit(v) {
			return nil, fmt.Errorf("costvec: value %v at index %d is not representable as %v + k·%v", v, i, lo, scale)
		}
		q.Codes[i] = uint16(k)
	}
	return q, nil
}

// Value reconstructs the cost of index i.
func (q *Quantized) Value(i int) float64 { return q.Min + q.Scale*float64(q.Codes[i]) }

// Expand reconstructs the full float64 diagonal.
func (q *Quantized) Expand() []float64 {
	out := make([]float64, len(q.Codes))
	for i := range out {
		out[i] = q.Value(i)
	}
	return out
}

// MemoryBytes returns the size of the compressed store (2 bytes per
// amplitude, the +12.5% figure against a 16-byte complex128 state).
func (q *Quantized) MemoryBytes() int { return 2 * len(q.Codes) }

// MaxCode returns the largest code present, bounding the phase-table
// size.
func (q *Quantized) MaxCode() uint16 {
	var m uint16
	for _, c := range q.Codes {
		if c > m {
			m = c
		}
	}
	return m
}

// Ascending returns the indices of a cost slice by ascending cost,
// ties by index: a stable counting sort by code when q holds the
// slice's level codes (codes rise with their levels), else a
// comparison sort of diag. CVaR walks this order, which is fixed per
// engine, so both engines build it once.
func Ascending(diag []float64, q *Quantized) []int {
	if q != nil {
		next := make([]int, int(q.MaxCode())+2)
		for _, c := range q.Codes {
			next[int(c)+1]++
		}
		for c := 1; c < len(next); c++ {
			next[c] += next[c-1]
		}
		order := make([]int, len(q.Codes))
		for i, c := range q.Codes {
			order[next[c]] = i
			next[c]++
		}
		return order
	}
	order := make([]int, len(diag))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		return diag[i] < diag[j] || diag[i] == diag[j] && i < j
	})
	return order
}

// PhaseTable tabulates e^{−iγ(Min+Scale·k)} for every code k in use.
// One table build (≤ 2^16 sincos calls) replaces 2^n of them per phase
// application; the multiply itself becomes a gather from the table.
func (q *Quantized) PhaseTable(gamma float64) []complex128 {
	tab := make([]complex128, int(q.MaxCode())+1)
	q.PhaseTableInto(tab, gamma)
	return tab
}

// PhaseTableInto is PhaseTable into caller-owned storage: it fills
// tab[k] = e^{−iγ(Min+Scale·k)} for k < len(tab), so a caller that
// sized tab to MaxCode()+1 once rebuilds it per γ without allocating.
func (q *Quantized) PhaseTableInto(tab []complex128, gamma float64) {
	for k := range tab {
		s, c := math.Sincos(-gamma * (q.Min + q.Scale*float64(k)))
		tab[k] = complex(c, s)
	}
}
