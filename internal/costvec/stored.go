package costvec

import (
	"math/bits"
	"slices"

	"qokit/internal/poly"
	"qokit/internal/statevec"
)

// PhaseTableRatio bounds the grids that take phase tables, and that a
// stored form keeps as codes, to 2^n/16 points: one per-γ table build
// then costs at most 1/16 of the 2^n sincos calls it replaces. It is
// the one rule: a distributed rank reads its window of the same form.
const PhaseTableRatio = 16

// TermPivots returns the pivots of the term group of an n-qubit cost
// given by its canonical term masks (poly.Compile's), reduced as
// SymmetryPivots reduces the group it finds, and flip, whether the
// complement 1…1 is in the group (every term has even degree).
//
// A spin term (−1)^{|x ∧ m|} is fixed by the XOR mask g exactly when
// |g ∧ m| is even, and the Walsh expansion of a cost is unique, so the
// masks that fix the cost are exactly the GF(2) null space of the
// canonical masks. Each entry of the diagonal is then the same
// sequence of additions at x and x ⊕ g (both precompute routes add the
// terms' signed weights, whose signs g leaves alone), so every element
// of the term group fixes the diagonal bit for bit. No diagonal is read.
func TermPivots(n int, masks []uint64) (pivots []uint64, flip bool) {
	// Reduced row echelon form of the masks: rows[b] has leading bit
	// b, which no other row has set.
	var rows [64]uint64
	for _, m := range masks {
		for b := range rows {
			if rows[b] != 0 && m>>uint(b)&1 == 1 {
				m ^= rows[b]
			}
		}
		if m == 0 {
			continue
		}
		lead := bits.Len64(m) - 1
		for b := range rows {
			if rows[b]>>uint(lead)&1 == 1 {
				rows[b] ^= m
			}
		}
		rows[lead] = m
	}
	// Each free column f spans the null space with f plus the leading
	// bits of the rows that hold f.
	var group xorBasis
	for f := 0; f < n; f++ {
		if rows[f] != 0 {
			continue
		}
		g := uint64(1) << uint(f)
		for b, r := range rows {
			if r>>uint(f)&1 == 1 {
				g |= 1 << uint(b)
			}
		}
		group.insert(g)
	}
	flip = true
	for _, m := range masks {
		flip = flip && bits.OnesCount64(m)%2 == 0
	}
	return groupPivots(n, group.find), flip
}

// xorBasis is a GF(2) basis in echelon form: basis[b] is 0 or has
// leading bit b.
type xorBasis [64]uint64

func (x *xorBasis) insert(v uint64) {
	for v != 0 {
		b := bits.Len64(v) - 1
		if x[b] == 0 {
			x[b] = v
			return
		}
		v ^= x[b]
	}
}

// find returns the largest element of the span whose leading bit is l,
// or 0: basis[l], with each lower bit set wherever a basis element
// leads there (the lower elements never touch the higher bits).
func (x *xorBasis) find(l int) uint64 {
	v := x[l]
	if v == 0 {
		return 0
	}
	for b := l - 1; b >= 0; b-- {
		if x[b] != 0 && v>>uint(b)&1 == 0 {
			v ^= x[b]
		}
	}
	return v
}

// Stored is the part of a cost diagonal that an engine holds: the h
// pivots of a symmetry group of the cost (TermPivots or
// SymmetryPivots) and the entries at the 2^(n−h) indices whose top h
// bits are zero, the indices a state stored over the group keeps.
// Entry x of the full diagonal is the stored entry at x ⊕ g, for g the
// group element that carries x's top h bits. The stored entries are
// uint16 codes (Codes, §V-B's 2 B per entry) when they form an exact
// grid of at most 2^n/PhaseTableRatio levels, and float64 entries
// (Diag) otherwise; exactly one of the two is set. A Stored is
// read-only once built.
type Stored struct {
	N      int
	Pivots []uint64
	// Flip reports that the complement 1…1 fixes the cost: the group
	// the distributed engine falls back to when its ranks cannot hold
	// the pivots.
	Flip  bool
	Diag  []float64
	Codes *Quantized
}

// NewStored precomputes the stored entries of the cost with compiled
// terms c over the group the pivots generate, on the worker pool: the
// first 2^(n−h) entries of Precompute, bit for bit, and nothing else.
// A NaN or ±Inf entry (finite weights whose sum overflows) returns an
// error wrapping poly.ErrNonFiniteCost; every value of the diagonal is
// a stored entry, so none escapes the check.
func NewStored(p *statevec.Pool, c poly.Compiled, n int, pivots []uint64, flip bool) (*Stored, error) {
	entries := make([]float64, 1<<uint(n-len(pivots)))
	precomputePrefix(p, c, entries)
	if err := CheckFinite(entries, 0); err != nil {
		return nil, err
	}
	return storedFrom(n, pivots, flip, entries), nil
}

// FromDiagonal converts a full, checked 2^n diagonal that the pivots'
// group fixes (SymmetryPivots) into its stored form, keeping a
// sub-slice of diag when the entries are not an exact grid.
func FromDiagonal(diag []float64, pivots []uint64, flip bool) *Stored {
	n := bits.Len(uint(len(diag))) - 1
	return storedFrom(n, pivots, flip, diag[:len(diag)>>uint(len(pivots))])
}

func storedFrom(n int, pivots []uint64, flip bool, entries []float64) *Stored {
	s := &Stored{N: n, Pivots: pivots, Flip: flip}
	if q, err := QuantizeExact(entries, 1<<uint(n)/PhaseTableRatio); err == nil {
		s.Codes = q
	} else {
		s.Diag = entries
	}
	return s
}

// Len returns the number of stored entries, 2^(n−h).
func (s *Stored) Len() int { return 1 << uint(s.N-len(s.Pivots)) }

// Value returns stored entry i.
func (s *Stored) Value(i int) float64 {
	if s.Codes != nil {
		return s.Codes.Value(i)
	}
	return s.Diag[i]
}

// Bytes returns the size of the stored entries: 2 B each as codes, 8 B
// as float64.
func (s *Stored) Bytes() int64 {
	if s.Codes != nil {
		return int64(s.Codes.MemoryBytes())
	}
	return 8 * int64(len(s.Diag))
}

// Range fills out[i] with entry offset + i of the full diagonal, for
// offset + len(out) ≤ 2^n, reading each through the group.
func (s *Stored) Range(offset uint64, out []float64) {
	group := Group(s.Pivots)
	low := uint(s.N - len(s.Pivots))
	for i := range out {
		x := offset + uint64(i)
		out[i] = s.Value(int(x ^ group[x>>low]))
	}
}

// Expand returns the full 2^n diagonal, freshly allocated: entry for
// entry the diagonal the form was built from, bit for bit.
func (s *Stored) Expand() []float64 {
	out := make([]float64, 1<<uint(s.N))
	s.Range(0, out)
	return out
}

// Over returns the form over the group the pivots generate, another
// symmetry group of the same cost, for a consumer that stores its state
// over it: s itself when the groups agree, else the entries at the new
// group's stored indices read through s's group (nil pivots expand to
// all 2^n). Every value of the diagonal is a stored entry under either
// group, so the codes-or-float64 rule decides as it did for s, and codes
// keep s's grid, code for code.
func (s *Stored) Over(pivots []uint64) *Stored {
	group := Group(s.Pivots)
	if slices.Equal(Group(pivots), group) {
		return s
	}
	out := &Stored{N: s.N, Pivots: pivots, Flip: s.Flip}
	size := 1 << uint(s.N-len(pivots))
	if s.Codes == nil {
		out.Diag = make([]float64, size)
		s.Range(0, out.Diag)
		return out
	}
	low := uint(s.N - len(s.Pivots))
	q := &Quantized{Codes: make([]uint16, size), Min: s.Codes.Min, Scale: s.Codes.Scale}
	for x := range q.Codes {
		q.Codes[x] = s.Codes.Codes[uint64(x)^group[uint64(x)>>low]]
	}
	out.Codes = q
	return out
}
