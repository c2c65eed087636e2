package poly

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTermEval(t *testing.T) {
	cases := []struct {
		term Term
		x    uint64
		want float64
	}{
		{NewTerm(1.5), 0b0000, 1.5},          // constant
		{NewTerm(1.5), 0b1111, 1.5},          // constant ignores bits
		{NewTerm(2, 0), 0b0, 2},              // s0 = +1
		{NewTerm(2, 0), 0b1, -2},             // s0 = −1
		{NewTerm(1, 0, 1), 0b00, 1},          // (+1)(+1)
		{NewTerm(1, 0, 1), 0b01, -1},         // (−1)(+1)
		{NewTerm(1, 0, 1), 0b10, -1},         // (+1)(−1)
		{NewTerm(1, 0, 1), 0b11, 1},          // (−1)(−1)
		{NewTerm(-0.5, 1, 3), 0b1010, -0.5},  // both −1 → product +1
		{NewTerm(-0.5, 1, 3), 0b0010, 0.5},   // one −1 → product −1
		{NewTerm(1, 0, 1, 2, 3), 0b0111, -1}, // three −1 spins
	}
	for _, c := range cases {
		if got := c.term.Eval(c.x); got != c.want {
			t.Errorf("term %v on x=%b: got %v, want %v", c.term, c.x, got, c.want)
		}
	}
}

func TestTermMask(t *testing.T) {
	tm := NewTerm(1, 0, 3, 5)
	if got, want := tm.Mask(), uint64(0b101001); got != want {
		t.Errorf("Mask() = %b, want %b", got, want)
	}
	if got := NewTerm(7).Mask(); got != 0 {
		t.Errorf("constant term mask = %b, want 0", got)
	}
}

func TestTermMaskPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for index 64")
		}
	}()
	NewTerm(1, 64).Mask()
}

func TestTermsEvalMatchesManualSum(t *testing.T) {
	// f(s) = 3 − 2 s0 + 0.5 s1 s2  evaluated on all 8 assignments.
	ts := New(NewTerm(3), NewTerm(-2, 0), NewTerm(0.5, 1, 2))
	for x := uint64(0); x < 8; x++ {
		s := func(i uint) float64 {
			if x>>i&1 == 1 {
				return -1
			}
			return 1
		}
		want := 3 - 2*s(0) + 0.5*s(1)*s(2)
		if got := ts.Eval(x); got != want {
			t.Errorf("Eval(%b) = %v, want %v", x, got, want)
		}
	}
}

func TestNumVarsAndDegreeAndOffset(t *testing.T) {
	ts := New(NewTerm(1, 2, 7), NewTerm(4), NewTerm(-1, 0), NewTerm(2.5))
	if got := ts.NumVars(); got != 8 {
		t.Errorf("NumVars = %d, want 8", got)
	}
	if got := ts.MaxDegree(); got != 2 {
		t.Errorf("MaxDegree = %d, want 2", got)
	}
	if got := ts.Offset(); got != 6.5 {
		t.Errorf("Offset = %v, want 6.5", got)
	}
	if got := Terms(nil).NumVars(); got != 0 {
		t.Errorf("empty NumVars = %d, want 0", got)
	}
}

func TestValidate(t *testing.T) {
	if err := New(NewTerm(1, 0, 1)).Validate(2); err != nil {
		t.Errorf("valid terms rejected: %v", err)
	}
	if err := New(NewTerm(1, 2)).Validate(2); err == nil {
		t.Error("out-of-range variable accepted")
	}
	if err := New(NewTerm(1, 0, 0)).Validate(2); err == nil {
		t.Error("duplicate variable accepted")
	}
	if err := New(NewTerm(1, -1)).Validate(2); err == nil {
		t.Error("negative variable accepted")
	}
	if err := Terms(nil).Validate(65); err == nil {
		t.Error("n=65 accepted")
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := New(NewTerm(1, 0), NewTerm(w, 0, 1)).Validate(2); !errors.Is(err, ErrNonFiniteCost) {
			t.Errorf("weight %v: error %v, want ErrNonFiniteCost", w, err)
		}
	}
}

func TestCanonicalMergesAndFolds(t *testing.T) {
	ts := New(
		NewTerm(1, 0, 1),
		NewTerm(2, 1, 0),       // same monomial, different order
		NewTerm(5, 3, 3),       // s3² = 1 → constant 5
		NewTerm(-5),            // cancels the constant
		NewTerm(1, 2),          // survives
		NewTerm(-1, 2),         // cancels s2
		NewTerm(0.25, 4, 4, 4), // s4³ = s4
	)
	c := ts.Canonical()
	want := New(NewTerm(0.25, 4), NewTerm(3, 0, 1)).Canonical()
	if len(c) != len(want) {
		t.Fatalf("canonical = %v, want %v", c, want)
	}
	for i := range c {
		if c[i].Mask() != want[i].Mask() || c[i].Weight != want[i].Weight {
			t.Fatalf("canonical = %v, want %v", c, want)
		}
	}
}

func TestCanonicalPreservesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		ts := randomTerms(rng, n, 1+rng.Intn(20))
		c := ts.Canonical()
		for probe := 0; probe < 16; probe++ {
			x := uint64(rng.Intn(1 << n))
			if got, want := c.Eval(x), ts.Eval(x); math.Abs(got-want) > 1e-12 {
				t.Fatalf("Canonical changed value at x=%b: %v vs %v (terms %v)", x, got, want, ts)
			}
		}
	}
}

func TestCompileMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		ts := randomTerms(rng, n, 1+rng.Intn(30))
		c := Compile(ts)
		for x := uint64(0); x < 1<<n && x < 64; x++ {
			if got, want := c.Eval(x), ts.Eval(x); math.Abs(got-want) > 1e-12 {
				t.Fatalf("Compiled eval mismatch at x=%b: %v vs %v", x, got, want)
			}
		}
	}
}

func TestPlusScale(t *testing.T) {
	a := New(NewTerm(1, 0))
	b := New(NewTerm(2, 1))
	sum := a.Plus(b)
	if len(sum) != 2 {
		t.Fatalf("Plus length = %d", len(sum))
	}
	for x := uint64(0); x < 4; x++ {
		if got, want := sum.Eval(x), a.Eval(x)+b.Eval(x); got != want {
			t.Errorf("Plus.Eval(%b) = %v, want %v", x, got, want)
		}
		if got, want := a.Scale(-3).Eval(x), -3*a.Eval(x); got != want {
			t.Errorf("Scale.Eval(%b) = %v, want %v", x, got, want)
		}
	}
}

func TestString(t *testing.T) {
	ts := New(NewTerm(0.5, 3, 1), NewTerm(-2))
	got := ts.String()
	want := "+0.5·s1·s3 -2"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if Terms(nil).String() != "0" {
		t.Errorf("empty String() = %q, want 0", Terms(nil).String())
	}
}

// Property: Canonical is idempotent.
func TestCanonicalIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		ts := randomTerms(rng, 8, 1+rng.Intn(25))
		once := ts.Canonical()
		twice := once.Canonical()
		if len(once) != len(twice) {
			t.Fatalf("idempotence violated: %v vs %v", once, twice)
		}
		for i := range once {
			if once[i].Mask() != twice[i].Mask() || once[i].Weight != twice[i].Weight {
				t.Fatalf("idempotence violated: %v vs %v", once, twice)
			}
		}
	}
}

// Property (testing/quick): for any mask pair, evaluating a two-term
// polynomial equals the sum of the individual term evaluations.
func TestQuickTermAdditivity(t *testing.T) {
	f := func(m1, m2 uint16, w1, w2 float64, x uint16) bool {
		t1 := Term{Weight: w1, Vars: maskVars(uint64(m1))}
		t2 := Term{Weight: w2, Vars: maskVars(uint64(m2))}
		ts := New(t1, t2)
		got := ts.Eval(uint64(x))
		want := t1.Eval(uint64(x)) + t2.Eval(uint64(x))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): flipping all bits of x leaves even-degree
// terms unchanged and negates odd-degree terms (spin-flip symmetry).
func TestQuickSpinFlipSymmetry(t *testing.T) {
	f := func(m uint16, w float64, x uint16) bool {
		tm := Term{Weight: w, Vars: maskVars(uint64(m))}
		flipped := tm.Eval(uint64(x) ^ 0xFFFF)
		if tm.Degree()%2 == 0 {
			return flipped == tm.Eval(uint64(x))
		}
		return flipped == -tm.Eval(uint64(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randomTerms(rng *rand.Rand, n, count int) Terms {
	ts := make(Terms, count)
	for i := range ts {
		deg := rng.Intn(4)
		vars := make([]int, 0, deg)
		for len(vars) < deg {
			vars = append(vars, rng.Intn(n))
		}
		ts[i] = Term{Weight: math.Round(rng.NormFloat64()*8) / 4, Vars: vars}
	}
	return ts
}
