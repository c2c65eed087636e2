// Package poly represents cost functions as polynomials over spin
// variables s_i ∈ {−1, +1}, the form used throughout the QOKit paper
// (Eq. 1):
//
//	f(s) = Σ_k w_k Π_{i∈t_k} s_i .
//
// A polynomial is a set of terms; each term is a real weight together
// with a set of variable indices. The empty index set encodes a
// constant offset. With the bijection s_i = (−1)^{x_i} between spins
// and bits, a term's value on the bitstring x is
//
//	w_k · (−1)^{popcount(x & mask_k)} ,
//
// which is the XOR+popcount kernel the paper uses for precomputing the
// cost diagonal (§III-A).
package poly

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Term is one weighted monomial of a spin polynomial. Vars holds the
// 0-based indices of the spin variables in the product; it must not
// contain duplicates (use Canonical to fold duplicates away, since
// s_i² = 1). An empty Vars slice is a constant offset.
type Term struct {
	Weight float64
	Vars   []int
}

// NewTerm builds a term from a weight and variable indices.
func NewTerm(w float64, vars ...int) Term {
	return Term{Weight: w, Vars: vars}
}

// Degree reports the number of variables in the term.
func (t Term) Degree() int { return len(t.Vars) }

// Mask packs the term's variable indices into a bitmask. It panics if
// any index is outside [0, 64), which bounds this package to 64 spin
// variables — far above the 2^n state-vector sizes that are simulable.
func (t Term) Mask() uint64 {
	var m uint64
	for _, v := range t.Vars {
		if v < 0 || v >= 64 {
			panic(fmt.Sprintf("poly: variable index %d out of range [0,64)", v))
		}
		m |= 1 << uint(v)
	}
	return m
}

// Eval returns the term's value on assignment x (bit i of x is spin i,
// with bit 0 ↔ s=+1 and bit 1 ↔ s=−1). Repeated variables fold away in
// pairs (s_i² = 1), matching Canonical.
func (t Term) Eval(x uint64) float64 {
	var m uint64
	for _, v := range t.Vars {
		m ^= 1 << uint(v)
	}
	if bits.OnesCount64(x&m)&1 == 1 {
		return -t.Weight
	}
	return t.Weight
}

// String renders the term as, e.g., "+0.5·s3·s7".
func (t Term) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+g", t.Weight)
	vars := append([]int(nil), t.Vars...)
	sort.Ints(vars)
	for _, v := range vars {
		fmt.Fprintf(&b, "·s%d", v)
	}
	return b.String()
}

// Terms is a spin polynomial: a list of terms, summed.
type Terms []Term

// New builds a polynomial from (weight, vars...) pairs; it is a
// convenience mirror of QOKit's `terms=[(w, (i, j)), ...]` argument.
func New(terms ...Term) Terms { return Terms(terms) }

// NumVars returns one more than the largest variable index appearing
// in the polynomial (i.e. the minimum number of qubits needed), or 0
// for a constant polynomial.
func (ts Terms) NumVars() int {
	n := 0
	for _, t := range ts {
		for _, v := range t.Vars {
			if v+1 > n {
				n = v + 1
			}
		}
	}
	return n
}

// MaxDegree returns the largest term degree (0 for constants).
func (ts Terms) MaxDegree() int {
	d := 0
	for _, t := range ts {
		if t.Degree() > d {
			d = t.Degree()
		}
	}
	return d
}

// Offset returns the summed weight of all constant (degree-0) terms.
func (ts Terms) Offset() float64 {
	var o float64
	for _, t := range ts {
		if len(t.Vars) == 0 {
			o += t.Weight
		}
	}
	return o
}

// Eval evaluates the polynomial on assignment x by direct summation.
// This is the slow reference path; the cost-vector precomputation in
// internal/costvec uses the compiled Masks form instead.
func (ts Terms) Eval(x uint64) float64 {
	var f float64
	for _, t := range ts {
		f += t.Eval(x)
	}
	return f
}

// ErrNonFiniteCost reports a NaN or infinite cost: a term weight, or
// an entry of a cost diagonal. Simulating one would return a NaN
// energy and gradient instead of an error.
var ErrNonFiniteCost = errors.New("poly: non-finite cost")

// Validate checks that every weight is finite, every variable index is
// in [0, n) and no term repeats a variable. It returns a descriptive
// error for the first violation found, wrapping ErrNonFiniteCost for a
// NaN or ±Inf weight.
func (ts Terms) Validate(n int) error {
	if n < 0 || n > 64 {
		return fmt.Errorf("poly: n=%d out of supported range [0,64]", n)
	}
	for k, t := range ts {
		if math.IsNaN(t.Weight) || math.IsInf(t.Weight, 0) {
			return fmt.Errorf("%w: term %d (%s)", ErrNonFiniteCost, k, t)
		}
		var seen uint64
		for _, v := range t.Vars {
			if v < 0 || v >= n {
				return fmt.Errorf("poly: term %d (%s): variable s%d out of range [0,%d)", k, t, v, n)
			}
			if seen&(1<<uint(v)) != 0 {
				return fmt.Errorf("poly: term %d (%s): duplicate variable s%d (use Canonical to fold s_i²=1)", k, t, v)
			}
			seen |= 1 << uint(v)
		}
	}
	return nil
}

// Canonical returns an equivalent polynomial in canonical form:
// duplicate variables within a term are folded using s_i² = 1, terms
// with equal variable sets are merged by summing weights, zero-weight
// terms are dropped, and terms are sorted by (degree, mask). The
// result is the minimal representation the precomputation iterates
// over.
func (ts Terms) Canonical() Terms {
	acc := make(map[uint64]float64, len(ts))
	for _, t := range ts {
		var m uint64
		for _, v := range t.Vars {
			if v < 0 || v >= 64 {
				panic(fmt.Sprintf("poly: variable index %d out of range [0,64)", v))
			}
			m ^= 1 << uint(v) // XOR folds pairs: s_i² = 1
		}
		acc[m] += t.Weight
	}
	out := make(Terms, 0, len(acc))
	for m, w := range acc {
		if w == 0 {
			continue
		}
		out = append(out, Term{Weight: w, Vars: maskVars(m)})
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Degree(), out[j].Degree()
		if di != dj {
			return di < dj
		}
		return out[i].Mask() < out[j].Mask()
	})
	return out
}

// Plus returns the sum of two polynomials (concatenation; call
// Canonical to merge).
func (ts Terms) Plus(other Terms) Terms {
	out := make(Terms, 0, len(ts)+len(other))
	out = append(out, ts...)
	out = append(out, other...)
	return out
}

// Scale returns the polynomial with every weight multiplied by c.
func (ts Terms) Scale(c float64) Terms {
	out := make(Terms, len(ts))
	for i, t := range ts {
		out[i] = Term{Weight: c * t.Weight, Vars: t.Vars}
	}
	return out
}

// String renders the polynomial as a readable sum.
func (ts Terms) String() string {
	if len(ts) == 0 {
		return "0"
	}
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

func maskVars(m uint64) []int {
	if m == 0 {
		return nil
	}
	vars := make([]int, 0, bits.OnesCount64(m))
	for m != 0 {
		v := bits.TrailingZeros64(m)
		vars = append(vars, v)
		m &^= 1 << uint(v)
	}
	return vars
}

// Compiled is the mask-and-weight form of a polynomial used by the hot
// precomputation loops: parallel slices so the inner loop is two array
// reads, an AND, a popcount and a conditionally-signed add.
type Compiled struct {
	Masks   []uint64
	Weights []float64
}

// Compile canonicalizes the polynomial and packs it into mask form.
func Compile(ts Terms) Compiled {
	c := ts.Canonical()
	out := Compiled{
		Masks:   make([]uint64, len(c)),
		Weights: make([]float64, len(c)),
	}
	for i, t := range c {
		out.Masks[i] = t.Mask()
		out.Weights[i] = t.Weight
	}
	return out
}

// Len reports the number of compiled terms.
func (c Compiled) Len() int { return len(c.Masks) }

// Eval evaluates the compiled polynomial on assignment x.
func (c Compiled) Eval(x uint64) float64 {
	var f float64
	for i, m := range c.Masks {
		w := c.Weights[i]
		if bits.OnesCount64(x&m)&1 == 1 {
			f -= w
		} else {
			f += w
		}
	}
	return f
}
