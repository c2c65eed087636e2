// Package costvec implements the paper's central optimization
// (§III-A): precomputing the diagonal of the problem Hamiltonian
// Ĉ = Σ_x f(x)|x⟩⟨x| as a 2^n cost vector. The precomputed diagonal
// turns the QAOA phase operator into one elementwise multiply and the
// QAOA objective into one inner product, and is reused across every
// layer and every objective evaluation during parameter optimization.
//
// The package provides
//   - serial and worker-pool precomputation from compiled polynomial
//     terms (the XOR+popcount kernel), plus a paper-faithful
//     one-kernel-per-term variant for ablation,
//   - range-sliced precomputation for the distributed simulator
//     (each rank computes its slice with no communication, §III-C),
//   - a quantized uint16 store with exact round-trip for integer-
//     valued costs, reproducing the paper's §V-B memory optimization
//     (state 16 B/amplitude, costs 2 B/amplitude ⇒ +12.5%), and
//   - phase lookup tables over the 2^16 code space so the quantized
//     phase operator replaces per-amplitude sin/cos with table reads.
package costvec

import (
	"fmt"
	"math"
	"math/bits"

	"qokit/internal/poly"
	"qokit/internal/statevec"
)

// Precompute evaluates the cost diagonal serially: the "CPU
// precompute" path of the paper's Fig. 4.
func Precompute(c poly.Compiled, n int) []float64 {
	diag := make([]float64, 1<<uint(n))
	precomputeRange(c, 0, diag)
	return diag
}

// PrecomputePool evaluates the cost diagonal on the worker-pool
// engine: the "GPU precompute" path of Fig. 4. Each worker computes a
// contiguous slice of the diagonal; every element is fully accumulated
// in registers before its single write (fused kernel).
func PrecomputePool(p *statevec.Pool, c poly.Compiled, n int) []float64 {
	diag := make([]float64, 1<<uint(n))
	p.Run(len(diag), func(lo, hi int) {
		precomputeRange(c, uint64(lo), diag[lo:hi])
	})
	return diag
}

// PrecomputeRange fills out[i] = f(offset + i) for the compiled terms:
// the building block for distributed precomputation, where rank r
// computes the slice starting at r·2^{n−k} locally (the paper's
// locality argument: precomputation needs no communication).
func PrecomputeRange(c poly.Compiled, offset uint64, out []float64) {
	precomputeRange(c, offset, out)
}

func precomputeRange(c poly.Compiled, offset uint64, out []float64) {
	masks, weights := c.Masks, c.Weights
	for i := range out {
		x := offset + uint64(i)
		var f float64
		for k, m := range masks {
			w := weights[k]
			if bits.OnesCount64(x&m)&1 == 1 {
				f -= w
			} else {
				f += w
			}
		}
		out[i] = f
	}
}

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
// Min + Scale·Codes[i]. For integer-valued costs (LABS, unweighted
// MaxCut) the representation is exact as long as the cost range fits
// in Scale·65535; the paper relies on LABS optima being below 2^16 for
// n < 65. Scale 0 is the degenerate constant-diagonal representation:
// every code is 0 and every value is exactly Min.
type Quantized struct {
	Codes []uint16
	Min   float64
	Scale float64
}

// AutoScales is the power-of-two step ladder QuantizeAuto walks, from
// coarsest to finest. Exported so the distributed quantization
// agreement can walk the same ladder per shard and reconcile the
// chosen rung across ranks.
var AutoScales = []float64{1, 0.5, 0.25, 0.125, 0.0625}

// Quantize compresses the diagonal with the given scale, failing if
// any value is not exactly (within 1e-9·scale) Min + k·Scale with
// integer k ≤ 65535. Scale must be positive, except that a constant
// diagonal (hi == lo) always quantizes to Scale 0 with all-zero codes
// — the degenerate representation that keeps Value and PhaseTable
// exact without a step size (no span exists to derive one from, and a
// zero scale must never reach the code-assignment division).
func Quantize(diag []float64, scale float64) (*Quantized, error) {
	lo, hi := MinMax(diag)
	return quantize(diag, lo, hi, scale, false)
}

// quantize assigns codes against the diagonal's extrema (lo, hi). In
// exact mode a value must equal Min + Scale·k bit for bit; otherwise
// within 1e-9·scale.
func quantize(diag []float64, lo, hi, scale float64, exact bool) (*Quantized, error) {
	if hi == lo {
		return &Quantized{Codes: make([]uint16, len(diag)), Min: lo, Scale: 0}, nil
	}
	if scale <= 0 {
		return nil, fmt.Errorf("costvec: scale %v must be positive", scale)
	}
	if span := hi - lo; span > scale*65535 {
		return nil, fmt.Errorf("costvec: range %v exceeds uint16 capacity %v at scale %v", span, scale*65535, scale)
	}
	q := &Quantized{Codes: make([]uint16, len(diag)), Min: lo, Scale: scale}
	tol := 1e-9 * scale
	for i, v := range diag {
		k := math.Round((v - lo) / scale)
		w := lo + k*scale
		if exact && (w != v || math.Signbit(w) != math.Signbit(v)) || !exact && math.Abs(v-w) > tol {
			return nil, fmt.Errorf("costvec: value %v at index %d is not representable as %v + k·%v", v, i, lo, scale)
		}
		q.Codes[i] = uint16(k)
	}
	return q, nil
}

// QuantizeAuto tries the AutoScales ladder (1, ½, ¼, ⅛, 1/16) and
// returns the first exact quantization, or an error if the diagonal is
// not exactly representable at any of them. A constant diagonal short-
// circuits to the degenerate Scale-0 representation. Non-integer-
// valued objectives should keep the float64 diagonal instead.
func QuantizeAuto(diag []float64) (*Quantized, error) {
	return quantizeAuto(diag, false, 1<<16)
}

// QuantizeExact is QuantizeAuto with bitwise equality instead of its
// 1e-9·Scale tolerance — every diag[x] equals Min + Scale·Codes[x]
// exactly — and with at most maxLevels grid points (MaxCode < maxLevels).
// It fails on any other diagonal. The simulator uses it to decide
// whether a diagonal takes per-γ phase tables: sincos of a level is
// then the sincos of the very value the diagonal stores.
func QuantizeExact(diag []float64, maxLevels int) (*Quantized, error) {
	return quantizeAuto(diag, true, maxLevels)
}

func quantizeAuto(diag []float64, exact bool, maxLevels int) (*Quantized, error) {
	lo, hi := MinMax(diag)
	if hi == lo {
		return quantize(diag, lo, hi, 0, exact)
	}
	lastErr := fmt.Errorf("costvec: range %v needs more than %d levels at every scale", hi-lo, maxLevels)
	for _, scale := range AutoScales {
		if (hi-lo)/scale >= float64(maxLevels) {
			// Finer rungs only need more levels.
			break
		}
		q, err := quantize(diag, lo, hi, scale, exact)
		if err == nil {
			return q, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("costvec: no exact power-of-two quantization found: %w", lastErr)
}

// QuantizeRange compresses one shard of a larger diagonal against an
// externally agreed global (min, scale) — the distributed §V-B path,
// where each rank quantizes only its PrecomputeRange slice but all
// ranks share the extrema reconciled by an allreduce pre-pass, so
// codes are comparable across shards. Scale 0 selects the degenerate
// constant representation and requires every shard value to equal min
// exactly.
func QuantizeRange(diag []float64, min, scale float64) (*Quantized, error) {
	if scale < 0 {
		return nil, fmt.Errorf("costvec: scale %v must be ≥ 0", scale)
	}
	q := &Quantized{Codes: make([]uint16, len(diag)), Min: min, Scale: scale}
	if scale == 0 {
		for i, v := range diag {
			if v != min {
				return nil, fmt.Errorf("costvec: value %v at index %d differs from %v (scale 0 represents constant diagonals only)", v, i, min)
			}
		}
		return q, nil
	}
	tol := 1e-9 * scale
	for i, v := range diag {
		k := math.Round((v - min) / scale)
		if k < 0 || k > 65535 {
			return nil, fmt.Errorf("costvec: value %v at index %d needs code %g outside uint16 range at min %v, scale %v", v, i, k, min, scale)
		}
		if math.Abs(v-(min+k*scale)) > tol {
			return nil, fmt.Errorf("costvec: value %v at index %d is not representable as %v + k·%v", v, i, min, scale)
		}
		q.Codes[i] = uint16(k)
	}
	return q, nil
}

// CanQuantizeRange reports whether QuantizeRange would succeed,
// without allocating the code store — the cheap probe the distributed
// scale agreement walks the AutoScales ladder with.
func CanQuantizeRange(diag []float64, min, scale float64) bool {
	if scale < 0 {
		return false
	}
	if scale == 0 {
		for _, v := range diag {
			if v != min {
				return false
			}
		}
		return true
	}
	tol := 1e-9 * scale
	for _, v := range diag {
		k := math.Round((v - min) / scale)
		if k < 0 || k > 65535 || math.Abs(v-(min+k*scale)) > tol {
			return false
		}
	}
	return true
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

// ExpectationQuantized computes Σ_x value_x |ψ_x|² directly from the
// codes without expanding the diagonal: E = Min·‖ψ‖² + Scale·Σ_x
// code_x |ψ_x|².
func (q *Quantized) ExpectationQuantized(p *statevec.Pool, v statevec.Vec) float64 {
	if len(v) != len(q.Codes) {
		panic(fmt.Sprintf("costvec: ExpectationQuantized length mismatch %d vs %d", len(v), len(q.Codes)))
	}
	codes := q.Codes
	norm := p.NormSquared(v)
	codeSum := p.Reduce(len(v), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			a := v[i]
			s += float64(codes[i]) * (real(a)*real(a) + imag(a)*imag(a))
		}
		return s
	})
	return q.Min*norm + q.Scale*codeSum
}
