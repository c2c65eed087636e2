package poly_test

// Native Go fuzz targets for the term-compilation pipeline: arbitrary
// byte strings decode into arbitrary spin polynomials (including
// duplicate variables, zero weights, and merging collisions — exactly
// the inputs Canonical must fold away), and every downstream
// representation is checked against direct summation on the full
// 2^n assignment space:
//
//	Terms.Eval  ≈  Canonical().Eval  ≈  Compiled.Eval
//	Compiled.Eval  ==  costvec.Precompute  ==  costvec.PrecomputePool
//	               ==  costvec.PrecomputeRange slices   (bit for bit)
//	            ==  QuantizeExact(…).Value      (all weights dyadic)
//
// A decoded weight may be divided by 3, so inputs reach both of the
// precompute's routes: the blocked WHT for weights that sum exactly
// and the term loop for the rest.
//
// Seed corpora live in testdata/fuzz/; CI runs a short -fuzztime
// smoke on top of the checked-in seeds.

import (
	"math"
	"testing"

	"qokit/internal/costvec"
	"qokit/internal/poly"
	"qokit/internal/statevec"
)

// decodeTerms maps an arbitrary byte string onto (n, terms): byte 0
// selects n ∈ [4,8]; each following chunk is one term — a dyadic
// weight in [−16, 15.875], a degree in [0,3] from the low two bits of
// the second byte (bit 2 divides the weight by 3, making it
// non-dyadic), and degree variable bytes reduced mod n (duplicates
// intentionally allowed: s_i² = 1 folding is part of what is under
// test). dyadic reports whether every weight stayed dyadic.
func decodeTerms(data []byte) (n int, ts poly.Terms, dyadic bool) {
	n, dyadic = 4, true
	if len(data) > 0 {
		n += int(data[0] % 5)
		data = data[1:]
	}
	for len(data) >= 2 && len(ts) < 32 {
		w := float64(int8(data[0])) / 8
		if data[1]&4 != 0 {
			w /= 3
			dyadic = false
		}
		deg := int(data[1] % 4)
		if len(data) < 2+deg {
			break
		}
		vars := make([]int, deg)
		for i := range vars {
			vars[i] = int(data[2+i]) % n
		}
		ts = append(ts, poly.Term{Weight: w, Vars: vars})
		data = data[2+deg:]
	}
	return n, ts, dyadic
}

func FuzzTermsCompileAndPrecompute(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 8, 2, 0, 1, 248, 2, 1, 2})
	f.Add([]byte{4, 16, 0, 255, 3, 0, 0, 0, 8, 1, 7})
	f.Add([]byte{2, 200, 2, 3, 3, 56, 2, 2, 2, 8, 3, 0, 1, 2})
	// A single degree-0 term: the diagonal is constant (hi == lo), the
	// degenerate case that must quantize to Scale 0 with all-zero codes
	// instead of a zero/NaN step (see the degenerate branch below).
	f.Add([]byte{0, 16, 0})
	// Weights of 1/3 and 1: not all sums are exact, so the diagonal
	// takes the term loop.
	f.Add([]byte{1, 8, 6, 0, 1, 8, 1, 2, 24, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, ts, dyadic := decodeTerms(data)
		canon := ts.Canonical()
		if err := canon.Validate(n); err != nil {
			t.Fatalf("canonical form fails validation: %v", err)
		}
		// Canonicalization must be idempotent and evaluation-preserving.
		if again := canon.Canonical(); len(again) != len(canon) {
			t.Fatalf("Canonical not idempotent: %d terms, then %d", len(canon), len(again))
		}
		compiled := poly.Compile(ts)
		if compiled.Len() != len(canon) {
			t.Fatalf("Compile kept %d terms, canonical has %d", compiled.Len(), len(canon))
		}

		var sumW float64
		for _, tm := range ts {
			sumW += math.Abs(tm.Weight)
		}
		tol := 1e-9 * (1 + sumW)

		size := 1 << uint(n)
		diag := costvec.Precompute(compiled, n)
		diagPool := costvec.PrecomputePool(statevec.NewPool(3), compiled, n)
		diagRange := make([]float64, size)
		for lo := 0; lo < size; lo += size / 4 {
			costvec.PrecomputeRange(compiled, uint64(lo), diagRange[lo:lo+size/4])
		}
		for x := uint64(0); x < uint64(size); x++ {
			direct := ts.Eval(x)
			if d := math.Abs(canon.Eval(x) - direct); d > tol {
				t.Fatalf("x=%d: Canonical eval differs by %g", x, d)
			}
			want := compiled.Eval(x)
			if d := math.Abs(want - direct); d > tol {
				t.Fatalf("x=%d: Compiled eval differs by %g", x, d)
			}
			for _, got := range []struct {
				name string
				v    float64
			}{{"Precompute", diag[x]}, {"PrecomputePool", diagPool[x]}, {"PrecomputeRange", diagRange[x]}} {
				if math.Float64bits(got.v) != math.Float64bits(want) {
					t.Fatalf("x=%d: %s gives %v, Compiled.Eval %v", x, got.name, got.v, want)
				}
			}
		}

		// Dyadic weights (multiples of 1/8) make every cost an exact
		// multiple of 1/8, so the §V-B uint16 codes must round-trip
		// exactly whenever the range fits their capacity.
		lo, hi := costvec.MinMax(diag)
		if dyadic && hi-lo <= 0.125*65535 {
			q, err := costvec.QuantizeExact(diag, 1<<16)
			if err != nil {
				t.Fatalf("exact-representable diagonal rejected: %v", err)
			}
			for x, v := range diag {
				if q.Value(x) != v {
					t.Fatalf("x=%d: quantized round-trip %v != %v", x, q.Value(x), v)
				}
			}
		}

		// Degenerate (constant) diagonal: quantization must produce the
		// Scale-0 all-zero-code representation with exact values and a
		// single-entry phase table — never a zero/NaN step or a
		// divide-by-zero in code assignment.
		if hi == lo {
			q, err := costvec.QuantizeExact(diag, 1)
			if err != nil {
				t.Fatalf("constant diagonal rejected: %v", err)
			}
			if q.Scale != 0 || q.Min != lo {
				t.Fatalf("constant diagonal: (Min, Scale) = (%v, %v), want (%v, 0)", q.Min, q.Scale, lo)
			}
			for x := range diag {
				if q.Codes[x] != 0 || q.Value(x) != lo {
					t.Fatalf("constant diagonal: code[%d]=%d value %v, want 0 and %v", x, q.Codes[x], q.Value(x), lo)
				}
			}
			if len(diag) > 0 {
				tab := make([]complex128, int(q.MaxCode())+1)
				q.PhaseTableInto(tab, 0.3)
				if s, c := math.Sincos(-0.3 * lo); len(tab) != 1 || tab[0] != complex(c, s) {
					t.Fatalf("constant diagonal: phase table %v, want the one entry e^{−i·0.3·%v}", tab, lo)
				}
			}
		}
	})
}
