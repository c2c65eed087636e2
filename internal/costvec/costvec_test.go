package costvec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

func TestPrecomputeMatchesDirectEval(t *testing.T) {
	g, err := graphs.RandomRegular(10, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := problems.MaxCutTerms(g)
	c := poly.Compile(ts)
	diag := Precompute(c, 10)
	if len(diag) != 1024 {
		t.Fatalf("len = %d", len(diag))
	}
	for x := uint64(0); x < 1024; x++ {
		if want := ts.Eval(x); math.Abs(diag[x]-want) > 1e-12 {
			t.Fatalf("diag[%d] = %v, want %v", x, diag[x], want)
		}
	}
}

func TestPrecomputeVariantsAgree(t *testing.T) {
	ts := problems.LABSTerms(10)
	c := poly.Compile(ts)
	serial := Precompute(c, 10)
	for _, workers := range []int{1, 3, 4} {
		p := statevec.NewPool(workers)
		pooled := PrecomputePool(p, c, 10)
		perTerm := PrecomputeTermKernels(p, c, 10)
		for i := range serial {
			if math.Float64bits(serial[i]) != math.Float64bits(pooled[i]) {
				t.Fatalf("workers=%d pooled[%d] = %v, want %v", workers, i, pooled[i], serial[i])
			}
			if math.Abs(serial[i]-perTerm[i]) > 1e-9 {
				t.Fatalf("workers=%d perTerm[%d] = %v, want %v", workers, i, perTerm[i], serial[i])
			}
		}
	}
}

func TestPrecomputeRangeSlices(t *testing.T) {
	// Computing the diagonal in 8 independent slices must equal the
	// monolithic computation: the distributed no-communication path.
	ts := problems.LABSTerms(8)
	c := poly.Compile(ts)
	whole := Precompute(c, 8)
	sliced := make([]float64, len(whole))
	sliceLen := len(whole) / 8
	for r := 0; r < 8; r++ {
		lo := r * sliceLen
		PrecomputeRange(c, uint64(lo), sliced[lo:lo+sliceLen])
	}
	for i := range whole {
		if whole[i] != sliced[i] {
			t.Fatalf("slice mismatch at %d: %v vs %v", i, sliced[i], whole[i])
		}
	}
}

// TestExactSumsRule pins the rule that sends a polynomial to the WHT
// route at its edges, with each weight on a mask of its own, and checks
// that the diagonal both routes give for it is Compiled.Eval's bit for
// bit.
func TestExactSumsRule(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64 // 2^−1074
	for _, c := range []struct {
		name    string
		weights []float64
		want    bool
	}{
		{"empty", nil, true},
		{"integers", []float64{3, -7, 12, 1}, true},
		{"halves", []float64{0.5, -0.5, 1.5, -3}, true},
		{"2^52 twice", []float64{1 << 52, 1 << 52}, true},
		{"MaxFloat64", []float64{math.MaxFloat64}, true},
		{"subnormals", []float64{3 * tiny, tiny}, true},
		{"lone third", []float64{1.0 / 3}, true},
		{"2^53 grid steps", []float64{1 << 52, 1<<52 - 1, 1}, false},
		{"MaxFloat64 and 2^971", []float64{math.MaxFloat64, math.Ldexp(1, 971)}, false},
		{"sum overflows", []float64{1e308, 1e308}, false},
		{"decimal", []float64{0.1, 1}, false},
		{"subnormal and one", []float64{tiny, 1}, false},
		{"third and one", []float64{1.0 / 3, 1}, false},
		{"NaN", []float64{1, math.NaN()}, false},
		{"+Inf", []float64{math.Inf(1)}, false},
	} {
		if got := exactSums(c.weights); got != c.want {
			t.Errorf("%s: exactSums(%v) = %t, want %t", c.name, c.weights, got, c.want)
		}
		if c.name == "NaN" {
			continue // NaN propagation does not fix the sign bit
		}
		n := len(c.weights)
		comp := poly.Compiled{Masks: make([]uint64, n), Weights: c.weights}
		for k := range comp.Masks {
			comp.Masks[k] = 1 << uint(k)
		}
		requireBits(t, c.name, 0, Precompute(comp, n), evalAll(comp, n))
	}

	for _, c := range []struct {
		name  string
		terms poly.Terms
		want  bool
	}{
		{"LABS n=18", problems.LABSTerms(18), true},
		{"MaxCut 3-regular", maxCutTerms(t, 16, 1), true},
		{"SK", problems.SKTerms(16, 1), false},
		{"decimal-weighted MaxCut", problems.WeightedMaxCutTerms(graphs.RandomWeights(graphs.Ring(8), 0, 1, 1)), false},
		{"portfolio", problems.SyntheticPortfolio(8, 4, 0.5, 1).PortfolioTerms(), false},
	} {
		if got := exactSums(poly.Compile(c.terms).Weights); got != c.want {
			t.Errorf("%s: exactSums = %t, want %t", c.name, got, c.want)
		}
	}
}

func maxCutTerms(t *testing.T, n int, seed int64) poly.Terms {
	t.Helper()
	g, err := graphs.RandomRegular(n, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return problems.MaxCutTerms(g)
}

// evalAll returns Compiled.Eval over the 2^n entries: the reference
// the bit-identity tests compare against.
func evalAll(c poly.Compiled, n int) []float64 {
	want := make([]float64, 1<<uint(n))
	for x := range want {
		want[x] = c.Eval(uint64(x))
	}
	return want
}

// requireBits fails unless got equals want bit for bit; offset names
// got[0]'s index in the diagonal.
func requireBits(t *testing.T, name string, offset int, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v (%#x), Compiled.Eval gives %v (%#x)",
				name, offset+i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestPrecomputeBitIdentical checks every entry point against
// Compiled.Eval bit for bit, on polynomials that take the WHT route
// (LABS, unweighted MaxCut, the empty and constant polynomials) and the
// loop route (weighted MaxCut, SK, portfolio, weights whose sums
// overflow to +Inf): Precompute, PrecomputePool at 1–3 workers, and
// PrecomputeRange over K aligned slices and over unaligned pieces.
func TestPrecomputeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	check := func(name string, n int, terms poly.Terms) {
		c := poly.Compile(terms)
		want := evalAll(c, n)
		size := len(want)
		requireBits(t, name+"/Precompute", 0, Precompute(c, n), want)
		for _, w := range []int{1, 2, 3} {
			requireBits(t, fmt.Sprintf("%s/PrecomputePool(%d)", name, w), 0, PrecomputePool(statevec.NewPool(w), c, n), want)
		}
		piece := func(label string, lo, hi int) {
			out := make([]float64, hi-lo)
			PrecomputeRange(c, uint64(lo), out)
			requireBits(t, fmt.Sprintf("%s/PrecomputeRange%s[%d:%d]", name, label, lo, hi), lo, out, want[lo:hi])
		}
		for _, k := range []int{1, 2, 4, 8} {
			for lo := 0; k <= size && lo < size; lo += size / k {
				piece(fmt.Sprintf("(K=%d)", k), lo, lo+size/k)
			}
		}
		for lo := 0; lo < size; {
			hi := min(size, lo+1+rng.Intn(size/3+1))
			piece("", lo, hi)
			lo = hi
		}
	}
	for n := 1; n <= 14; n++ {
		g := graphs.ErdosRenyi(n, 0.5, int64(n))
		for _, p := range []struct {
			name  string
			terms poly.Terms
		}{
			{"LABS", problems.LABSTerms(n)},
			{"MaxCut", problems.MaxCutTerms(g)},
			{"weighted MaxCut", problems.WeightedMaxCutTerms(graphs.RandomWeights(g, 0, 1, int64(n)))},
			{"SK", problems.SKTerms(n, int64(n))},
			{"portfolio", problems.SyntheticPortfolio(n, (n+1)/2, 0.5, int64(n)).PortfolioTerms()},
			{"empty", nil},
			{"constant", poly.Terms{poly.NewTerm(-2.5)}},
			{"overflow", poly.Terms{poly.NewTerm(1e308), poly.NewTerm(1e308, 0), poly.NewTerm(-1.7e308, n-1)}},
		} {
			check(fmt.Sprintf("%s n=%d", p.name, n), n, p.terms)
		}
	}
	check("LABS n=16", 16, problems.LABSTerms(16))
}

// TestCheckDiagonal pins the one scan both engines decide the half
// state by: bitwise flip symmetry for even-degree costs, none for a
// cost with an odd-degree term or for a −0 facing a +0, and an error
// wrapping poly.ErrNonFiniteCost that names a NaN or ±Inf entry in
// either half, down to the one-entry diagonal of n = 0.
func TestCheckDiagonal(t *testing.T) {
	const n = 6
	g, err := graphs.RandomRegular(n, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	labs := Precompute(poly.Compile(problems.LABSTerms(n)), n)
	for _, c := range []struct {
		name string
		diag []float64
		want bool
	}{
		{"LABS", labs, true},
		{"MaxCut", Precompute(poly.Compile(problems.MaxCutTerms(g)), n), true},
		{"SK", Precompute(poly.Compile(problems.SKTerms(n, 3)), n), true},
		{"LABS plus a Z0 field", Precompute(poly.Compile(problems.LABSTerms(n).Plus(poly.New(poly.NewTerm(1, 0)))), n), false},
		{"+0 facing −0", []float64{0, 1, 1, math.Copysign(0, -1)}, false},
		{"n=0", []float64{7}, true},
	} {
		got, err := CheckDiagonal(c.diag)
		if err != nil || got != c.want {
			t.Errorf("%s: CheckDiagonal = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	for _, x := range []int{0, 5, 1<<(n-1) - 1, 1 << (n - 1), 1<<n - 1} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			d := append([]float64(nil), labs...)
			d[x] = bad
			_, err := CheckDiagonal(d)
			if !errors.Is(err, poly.ErrNonFiniteCost) || !strings.Contains(err.Error(), fmt.Sprintf("entry %d ", x)) {
				t.Errorf("entry %d = %v: error %v, want ErrNonFiniteCost naming the entry", x, bad, err)
			}
		}
	}
	if _, err := CheckDiagonal([]float64{math.NaN()}); !errors.Is(err, poly.ErrNonFiniteCost) {
		t.Errorf("n=0 NaN: error %v, want ErrNonFiniteCost", err)
	}
}

func TestFromFunc(t *testing.T) {
	diag := FromFunc(6, func(x uint64) float64 { return float64(problems.LABSEnergy(x, 6)) })
	want := Precompute(poly.Compile(problems.LABSTerms(6)), 6)
	for i := range diag {
		if math.Abs(diag[i]-want[i]) > 1e-9 {
			t.Fatalf("FromFunc[%d] = %v, want %v", i, diag[i], want[i])
		}
	}
}

func TestMinMaxAndGroundStates(t *testing.T) {
	diag := []float64{3, -1, 4, -1, 5}
	lo, hi := MinMax(diag)
	if lo != -1 || hi != 5 {
		t.Fatalf("MinMax = (%v,%v)", lo, hi)
	}
	gs := GroundStates(diag, 1e-9)
	if len(gs) != 2 || gs[0] != 1 || gs[1] != 3 {
		t.Fatalf("GroundStates = %v", gs)
	}
	if got := GroundStates(nil, 0); got != nil {
		t.Fatalf("GroundStates(nil) = %v", got)
	}
}

func TestGroundStatesMatchLABSBruteForce(t *testing.T) {
	n := 10
	diag := Precompute(poly.Compile(problems.LABSTerms(n)), n)
	got := GroundStates(diag, 1e-6)
	want, energy, err := problems.LABSGroundStates(n)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := MinMax(diag)
	if math.Abs(lo-float64(energy)) > 1e-9 {
		t.Fatalf("min diag %v, brute-force optimum %d", lo, energy)
	}
	wantSet := map[uint64]bool{}
	for _, s := range want {
		wantSet[s] = true
	}
	if len(got) != len(wantSet) {
		t.Fatalf("found %d ground states, want %d", len(got), len(wantSet))
	}
	for _, s := range got {
		if !wantSet[s] {
			t.Fatalf("spurious ground state %b", s)
		}
	}
}

func TestQuantizeExactRoundTripLABS(t *testing.T) {
	// LABS energies are integers, an exact grid at scale 1.
	n := 12
	diag := Precompute(poly.Compile(problems.LABSTerms(n)), n)
	q, err := QuantizeExact(diag, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if q.Scale != 1 {
		t.Errorf("Scale = %v, want 1", q.Scale)
	}
	expanded := q.Expand()
	for i := range diag {
		if diag[i] != expanded[i] {
			t.Fatalf("lossy at %d: %v vs %v", i, expanded[i], diag[i])
		}
		if q.Value(i) != diag[i] {
			t.Fatalf("Value(%d) = %v, want %v", i, q.Value(i), diag[i])
		}
	}
	if got, want := q.MemoryBytes(), 2*len(diag); got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

func TestQuantizeExactRoundTripMaxCut(t *testing.T) {
	// MaxCut costs are −cut, integers; at a quarter of the weights the
	// ring's even cuts fall on a half-integer grid, which scale ½
	// represents.
	g := graphs.Ring(5)
	terms := problems.MaxCutTerms(g)
	for _, c := range []struct {
		terms poly.Terms
		scale float64
	}{{terms, 1}, {terms.Scale(0.25), 0.5}} {
		diag := Precompute(poly.Compile(c.terms), 5)
		q, err := QuantizeExact(diag, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		if q.Scale != c.scale {
			t.Errorf("Scale = %v, want %v", q.Scale, c.scale)
		}
		for i := range diag {
			if q.Value(i) != diag[i] {
				t.Fatalf("scale %v: lossy at %d: %v vs %v", c.scale, i, q.Value(i), diag[i])
			}
		}
	}
}

func TestQuantizeErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		diag []float64
	}{
		{"range beyond uint16", []float64{0, 70000}},
		{"value between grid points", []float64{0, 0.3}},
		{"irrational value", []float64{0, math.Pi}},
		{"step finer than 1/16", []float64{0, 1.0 / 32}},
		{"+Inf", []float64{0, math.Inf(1)}},
		{"NaN beside a constant", []float64{2, math.NaN(), 2}},
		{"−0 beside +0", []float64{0, math.Copysign(0, -1)}},
	} {
		if _, err := QuantizeExact(c.diag, 1<<20); err == nil {
			t.Errorf("%s: %v accepted", c.name, c.diag)
		}
	}
}

// TestQuantizeExact pins the bitwise rule that decides whether a
// diagonal takes phase tables: integer costs pass and round-trip bit
// for bit, while values off the grid by 1e-12, Gaussian couplings, NaN
// and grids wider than maxLevels fail.
func TestQuantizeExact(t *testing.T) {
	const n = 10
	diag := Precompute(poly.Compile(problems.LABSTerms(n)), n)
	q, err := QuantizeExact(diag, 1<<n)
	if err != nil {
		t.Fatalf("LABS n=%d: %v", n, err)
	}
	for i, v := range diag {
		if w := q.Value(i); math.Float64bits(w) != math.Float64bits(v) {
			t.Fatalf("LABS value %d: %v round-trips to %v", i, v, w)
		}
	}
	span := int(q.MaxCode()) + 1
	if _, err := QuantizeExact(diag, span); err != nil {
		t.Errorf("%d levels rejected at maxLevels=%d: %v", span, span, err)
	}
	if _, err := QuantizeExact(diag, span-1); err == nil {
		t.Errorf("%d levels accepted at maxLevels=%d", span, span-1)
	}
	if _, err := QuantizeExact([]float64{2, 2, 2}, 1); err != nil {
		t.Errorf("constant diagonal rejected: %v", err)
	}

	offGrid := append([]float64(nil), diag...)
	offGrid[3] += 1e-12
	if _, err := QuantizeExact(offGrid, 1<<n); err == nil {
		t.Error("QuantizeExact accepted a value off the grid by 1e-12")
	}
	rng := rand.New(rand.NewSource(5))
	sk := make([]float64, 1<<n)
	for i := range sk {
		sk[i] = rng.NormFloat64()
	}
	if _, err := QuantizeExact(sk, 1<<n); err == nil {
		t.Error("QuantizeExact accepted a Gaussian diagonal")
	}
	if _, err := QuantizeExact([]float64{0, math.NaN(), 1}, 4); err == nil {
		t.Error("QuantizeExact accepted NaN")
	}
}

func TestPhaseTableAndApply(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 8
	diag := Precompute(poly.Compile(problems.LABSTerms(n)), n)
	q, err := QuantizeExact(diag, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	v := statevec.NewUniform(n)
	for i := range v {
		v[i] *= complex(rng.NormFloat64(), rng.NormFloat64())
	}
	v.Normalize()
	gamma := 0.37

	direct := v.Clone()
	statevec.PhaseDiag(direct, diag, gamma)
	viaTable := v.Clone()
	statevec.ApplyPhase(viaTable, statevec.Phase{Diag: diag, Gamma: gamma, Codes: q.Codes, Tab: q.PhaseTable(gamma)})
	if d := statevec.MaxAbsDiff(direct, viaTable); d > 1e-12 {
		t.Fatalf("quantized phase apply differs: %g", d)
	}
	// The in-place table build fills exactly PhaseTable's entries.
	tab := q.PhaseTable(gamma)
	into := make([]complex128, len(tab))
	q.PhaseTableInto(into, gamma)
	for k := range tab {
		if into[k] != tab[k] {
			t.Fatalf("PhaseTableInto[%d] = %v, want %v", k, into[k], tab[k])
		}
	}
}

func TestPhaseTableSize(t *testing.T) {
	q := &Quantized{Codes: []uint16{0, 3, 7}, Min: -2, Scale: 0.5}
	tab := q.PhaseTable(1.0)
	if len(tab) != 8 {
		t.Fatalf("table size %d, want 8 (MaxCode+1)", len(tab))
	}
	if q.MaxCode() != 7 {
		t.Fatalf("MaxCode = %d", q.MaxCode())
	}
}

// Property (testing/quick): precompute is linear in the polynomial —
// diag(a·T1 + T2) = a·diag(T1) + diag(T2).
func TestQuickPrecomputeLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 6
	f := func(seed int64, scaleRaw int8) bool {
		r := rand.New(rand.NewSource(seed))
		t1 := randomTerms(r, n, 5)
		t2 := randomTerms(r, n, 5)
		a := float64(scaleRaw) / 8
		left := Precompute(poly.Compile(t1.Scale(a).Plus(t2)), n)
		d1 := Precompute(poly.Compile(t1), n)
		d2 := Precompute(poly.Compile(t2), n)
		for i := range left {
			if math.Abs(left[i]-(a*d1[i]+d2[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func randomTerms(rng *rand.Rand, n, count int) poly.Terms {
	ts := make(poly.Terms, count)
	for i := range ts {
		deg := rng.Intn(3) + 1
		seen := map[int]bool{}
		var vars []int
		for len(vars) < deg {
			v := rng.Intn(n)
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
		ts[i] = poly.Term{Weight: math.Round(rng.NormFloat64()*4) / 2, Vars: vars}
	}
	return ts
}

// TestQuantizeConstantDiagonal pins the degenerate-diagonal contract:
// a constant diagonal (hi == lo) quantizes to Scale 0 with all-zero
// codes — no zero/NaN step, no divide-by-zero in code assignment —
// and Value, Expand, PhaseTable, the table phase, and the codes-only
// expectation stay exact.
func TestQuantizeConstantDiagonal(t *testing.T) {
	for _, c := range []float64{0, -3.5, 7} {
		diag := []float64{c, c, c, c}
		q, err := QuantizeExact(diag, 1)
		if err != nil {
			t.Fatalf("constant %v: %v", c, err)
		}
		if q.Scale != 0 || q.Min != c {
			t.Fatalf("constant %v: (Min, Scale) = (%v, %v), want (%v, 0)", c, q.Min, q.Scale, c)
		}
		for i := range diag {
			if q.Codes[i] != 0 {
				t.Fatalf("constant %v: code[%d] = %d, want 0", c, i, q.Codes[i])
			}
			if q.Value(i) != c {
				t.Fatalf("constant %v: Value(%d) = %v, want %v", c, i, q.Value(i), c)
			}
		}
		if got := q.Expand(); got[0] != c {
			t.Fatalf("constant %v: Expand()[0] = %v, want %v", c, got[0], c)
		}
		if tab := q.PhaseTable(0.7); len(tab) != 1 {
			t.Fatalf("constant %v: PhaseTable size %d, want 1", c, len(tab))
		}

		// The table phase and the expectation agree with the float64 path.
		p := statevec.NewPool(1)
		v := statevec.NewUniform(2)
		direct := v.Clone()
		statevec.PhaseDiag(direct, diag, 0.7)
		statevec.ApplyPhase(v, statevec.Phase{Diag: diag, Gamma: 0.7, Codes: q.Codes, Tab: q.PhaseTable(0.7)})
		if d := statevec.MaxAbsDiff(direct, v); d > 1e-15 {
			t.Fatalf("constant %v: table phase differs by %g", c, d)
		}
		s := statevec.SoAFromVec(v)
		codesOnly := statevec.Phase{Codes: q.Codes, Min: q.Min, Scale: q.Scale}
		if got, want := statevec.ExpectationPlanes(p, s.Re, s.Im, codesOnly), statevec.ExpectationDiag(direct, diag); math.Abs(got-want) > 1e-12 {
			t.Fatalf("constant %v: expectation %v, want %v", c, got, want)
		}
	}
}

// TestQuantizeRangeShards checks the distributed contract: each
// PrecomputeRange shard of a diagonal codes exactly on its own, against
// its own (Min, Scale), and reproduces its entries bit for bit — so
// ranks need not agree on a grid.
func TestQuantizeRangeShards(t *testing.T) {
	// LABS plus a field on the top qubit, so the shards' minima differ.
	n := 10
	compiled := poly.Compile(append(problems.LABSTerms(n), poly.NewTerm(4, n-1)))
	shardLen := (1 << n) / 8
	mins := map[float64]bool{}
	for r := 0; r < 8; r++ {
		shard := make([]float64, shardLen)
		PrecomputeRange(compiled, uint64(r*shardLen), shard)
		q, err := QuantizeExact(shard, 1<<16)
		if err != nil {
			t.Fatalf("shard %d: %v", r, err)
		}
		if lo, _ := MinMax(shard); q.Min != lo {
			t.Fatalf("shard %d: Min %v, want the shard minimum %v", r, q.Min, lo)
		}
		mins[q.Min] = true
		for i, v := range shard {
			if w := q.Value(i); math.Float64bits(w) != math.Float64bits(v) {
				t.Fatalf("shard %d: Value(%d) = %v, want %v", r, i, w, v)
			}
		}
	}
	if len(mins) < 2 {
		t.Error("every shard has the same minimum; the test needs shards on different grids")
	}
}

// TestQuantizedAdjointHelpers checks the quantized adjoint path, a
// codes-only statevec.Phase built from the quantization (Diag nil,
// levels Min + Scale·code), against the expanded float64 diagonal on
// the split-layout kernels: the phase, the expectation, the λ seed
// (MulDiag) and Im ⟨λ|Ĉ|ψ⟩ with the phase undo must match bit for bit
// for an exact quantization — the property that makes quantized
// distributed energies and gradients equal the float64 ones.
func TestQuantizedAdjointHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 8
	diag := Precompute(poly.Compile(problems.LABSTerms(n)), n)
	q, err := QuantizeExact(diag, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	psi := statevec.NewUniform(n)
	for i := range psi {
		psi[i] *= complex(rng.NormFloat64(), rng.NormFloat64())
	}
	psi.Normalize()
	lam := psi.Clone()
	for i := range lam {
		lam[i] *= complex(rng.NormFloat64(), 0.5)
	}
	const gamma = 0.41
	p := statevec.NewPool(1)
	tab := q.PhaseTable(gamma)
	codesOnly := statevec.Phase{Gamma: gamma, Codes: q.Codes, Tab: tab, Min: q.Min, Scale: q.Scale}
	for name, ref := range map[string]statevec.Phase{
		"sincos": {Diag: diag, Gamma: gamma},
		"table":  {Diag: diag, Gamma: gamma, Codes: q.Codes, Tab: tab},
	} {
		a, b := statevec.SoAFromVec(psi), statevec.SoAFromVec(psi)
		statevec.ApplyPhasePlanes(p, a.Re, a.Im, ref)
		statevec.ApplyPhasePlanes(p, b.Re, b.Im, codesOnly)
		if d := statevec.MaxAbsDiff(a.ToVec(), b.ToVec()); d > 0 {
			t.Errorf("%s: codes-only phase differs by %g", name, d)
		}
		if got, want := statevec.ExpectationPlanes(p, b.Re, b.Im, codesOnly), statevec.ExpectationPlanes(p, a.Re, a.Im, ref); got != want {
			t.Errorf("%s: codes-only expectation %v, want %v", name, got, want)
		}
		la, lb := statevec.SoAFromVec(lam), statevec.SoAFromVec(lam)
		got := statevec.ReversePhasePlanes(p, lb.Re, lb.Im, b.Re, b.Im, codesOnly, true)
		want := statevec.ReversePhasePlanes(p, la.Re, la.Im, a.Re, a.Im, ref, true)
		if got != want || statevec.MaxAbsDiff(a.ToVec(), b.ToVec()) > 0 || statevec.MaxAbsDiff(la.ToVec(), lb.ToVec()) > 0 {
			t.Errorf("%s: codes-only reverse phase %v, want %v (states must match bitwise)", name, got, want)
		}
		statevec.MulDiagPlanes(p, a.Re, a.Im, ref)
		statevec.MulDiagPlanes(p, b.Re, b.Im, codesOnly)
		if d := statevec.MaxAbsDiff(a.ToVec(), b.ToVec()); d > 0 {
			t.Errorf("%s: codes-only MulDiag differs by %g", name, d)
		}
	}
}
