package costvec

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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

// TestCheckDiagonal pins the scan that rejects non-finite diagonals
// and reports the complement that distsim falls back to when its ranks
// cannot hold the pivots SymmetryPivots finds: bitwise flip symmetry for
// even-degree costs, none for a cost with an odd-degree term or for a
// −0 facing a +0, and an error wrapping poly.ErrNonFiniteCost that
// names a NaN or ±Inf entry in either half, down to the one-entry
// diagonal of n = 0.
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

// bruteGroup returns every XOR mask that fixes diag bitwise.
func bruteGroup(diag []float64) []uint64 {
	var group []uint64
	for m := range diag {
		ok := true
		for x := range diag {
			if math.Float64bits(diag[x]) != math.Float64bits(diag[x^m]) {
				ok = false
				break
			}
		}
		if ok {
			group = append(group, uint64(m))
		}
	}
	return group
}

// ruleH applies the pivot rule to a whole group: the largest h ≤ n−1
// such that for each of the top h bits the group holds an element whose
// top h bits are that bit alone and whose lower n−h bits are not all
// zero.
func ruleH(n int, group []uint64) int {
	for h := n - 1; h >= 1; h-- {
		ok := true
		for j := 0; j < h && ok; j++ {
			ok = false
			for _, g := range group {
				if g>>uint(n-h) == 1<<uint(j) && g&(1<<uint(n-h)-1) != 0 {
					ok = true
					break
				}
			}
		}
		if ok {
			return h
		}
	}
	return 0
}

// flipOf is CheckDiagonal's report for diag, which the simulator hands
// to SymmetryPivots.
func flipOf(t *testing.T, diag []float64) bool {
	t.Helper()
	flip, err := CheckDiagonal(diag)
	if err != nil {
		t.Fatal(err)
	}
	return flip
}

// checkPivots requires pivots to obey the rule's shape on diag: pivot j
// fixes diag bitwise, its top h bits are bit n−h+j alone, and its
// lower bits are not all zero.
func checkPivots(t *testing.T, label string, diag []float64, pivots []uint64) {
	t.Helper()
	n := bits.Len(uint(len(diag) - 1))
	h := len(pivots)
	for j, g := range pivots {
		if g>>uint(n-h) != 1<<uint(j) || g&(1<<uint(n-h)-1) == 0 {
			t.Fatalf("%s: pivot %d is %0*b, want top bits %b and a nonzero lower part", label, j, n, g, 1<<uint(j))
		}
		for x := range diag {
			if math.Float64bits(diag[x]) != math.Float64bits(diag[uint64(x)^g]) {
				t.Fatalf("%s: pivot %0*b does not fix entry %d", label, n, g, x)
			}
		}
	}
}

// lower returns the low n−h bits of m.
func lower(m uint64, n, h int) uint64 { return m & (1<<uint(n-h) - 1) }

// alternatingMask returns the mask of the qubits below n with the
// parity of q.
func alternatingMask(n, q int) uint64 {
	var m uint64
	for i := q % 2; i < n; i += 2 {
		m |= 1 << uint(i)
	}
	return m
}

// TestSymmetryPivots pins the group rule on the problem families: LABS
// takes two pivots from n = 4 on (its alternating flips, μ the
// alternating masks), MaxCut and SK one, the complement (μ = 1…1),
// portfolio and LABS with Z₀ and Z₁ fields none. LABS with a Z₀ field
// keeps the flip of the odd positions, so at even n it takes one pivot
// with μ = 1010…10 and at odd n (where that flip misses the top qubit)
// none. Below n = 4: n = 0 and 1 take none, LABS n = 2 (a constant) one,
// and LABS n = 3, whose cost depends on s₀s₂ alone, one: 101.
func TestSymmetryPivots(t *testing.T) {
	diagOf := func(n int, ts poly.Terms) []float64 { return Precompute(poly.Compile(ts), n) }
	z0 := func(n int) poly.Terms { return problems.LABSTerms(n).Plus(poly.New(poly.NewTerm(1, 0))) }
	type want struct {
		h   int
		mus []uint64 // nil: not pinned
	}
	cases := map[string]struct {
		diag []float64
		want want
	}{
		"n=0":         {[]float64{7}, want{0, nil}},
		"n=1":         {[]float64{2, 2}, want{0, nil}},
		"labs n=2":    {diagOf(2, problems.LABSTerms(2)), want{1, []uint64{1}}},
		"labs n=3":    {diagOf(3, problems.LABSTerms(3)), want{1, []uint64{1}}},
		"labs+z0 n=3": {diagOf(3, z0(3)), want{0, nil}},
	}
	for _, n := range []int{4, 5, 8, 9, 14} {
		cases[fmt.Sprintf("labs n=%d", n)] = struct {
			diag []float64
			want want
		}{diagOf(n, problems.LABSTerms(n)), want{2, []uint64{lower(alternatingMask(n, n-2), n, 2), lower(alternatingMask(n, n-1), n, 2)}}}
	}
	for _, n := range []int{6, 9, 12} {
		g, err := graphs.RandomRegular(n, 3+n%2, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		all := want{1, []uint64{1<<uint(n-1) - 1}}
		cases[fmt.Sprintf("maxcut n=%d", n)] = struct {
			diag []float64
			want want
		}{diagOf(n, problems.MaxCutTerms(g)), all}
		cases[fmt.Sprintf("sk n=%d", n)] = struct {
			diag []float64
			want want
		}{diagOf(n, problems.SKTerms(n, int64(n))), all}
		cases[fmt.Sprintf("portfolio n=%d", n)] = struct {
			diag []float64
			want want
		}{diagOf(n, problems.SyntheticPortfolio(n, n/2, 0.5, int64(n)).PortfolioTerms()), want{0, nil}}
		cases[fmt.Sprintf("labs+z0+z1 n=%d", n)] = struct {
			diag []float64
			want want
		}{diagOf(n, z0(n).Plus(poly.New(poly.NewTerm(1, 1)))), want{0, nil}}
	}
	for _, n := range []int{8, 10, 14} {
		cases[fmt.Sprintf("labs+z0 n=%d", n)] = struct {
			diag []float64
			want want
		}{diagOf(n, z0(n)), want{1, []uint64{lower(alternatingMask(n, 1), n, 1)}}}
	}
	for _, n := range []int{7, 9} {
		cases[fmt.Sprintf("labs+z0 n=%d", n)] = struct {
			diag []float64
			want want
		}{diagOf(n, z0(n)), want{0, nil}}
	}
	for label, c := range cases {
		flip := flipOf(t, c.diag)
		pivots, reads := symmetryPivots(c.diag, flip, searchPasses*len(c.diag))
		checkPivots(t, label, c.diag, pivots)
		if len(pivots) != c.want.h {
			t.Errorf("%s: %d pivots, want %d", label, len(pivots), c.want.h)
			continue
		}
		n, h := bits.Len(uint(len(c.diag)-1)), c.want.h
		for j, mu := range c.want.mus {
			if got := lower(pivots[j], n, h); got != mu {
				t.Errorf("%s: μ_%d = %0*b, want %0*b", label, j, n-h, got, n-h, mu)
			}
		}
		if reads > 3*len(c.diag) {
			t.Errorf("%s: %d reads, more than 3 passes over %d entries", label, reads, len(c.diag))
		}
		// The complement comes from CheckDiagonal, so a pivot that is
		// the complement costs the search no pass.
		if complement := len(c.want.mus) == 1 && c.want.mus[0] == 1<<uint(n-1)-1; complement && reads >= len(c.diag) {
			t.Errorf("%s: %d reads, a pass over %d entries for the complement", label, reads, len(c.diag))
		}
		if got := SymmetryPivots(c.diag, flip); len(got) != len(pivots) {
			t.Errorf("%s: SymmetryPivots gives %d pivots, the search %d", label, len(got), len(pivots))
		}
	}
}

// TestSymmetryPivotsMatchRule compares the search, given reads enough
// to finish, with the rule applied to the whole group found by brute
// force, on diagonals fixed by random subspaces (orbit values drawn
// at random, so the group is the subspace): generators drawn anywhere,
// single-bit flips (costs that ignore a qubit, whose pivots need a
// lower-only element) and planted masks that miss the top bits. Each
// result must also obey the rule's shape.
func TestSymmetryPivotsMatchRule(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(8)
		var gens []uint64
		for k := rng.Intn(n + 1); k > 0; k-- {
			switch rng.Intn(3) {
			case 0:
				gens = append(gens, uint64(1+rng.Intn(1<<uint(n)-1)))
			case 1:
				gens = append(gens, 1<<uint(rng.Intn(n)))
			default:
				if n > 2 {
					gens = append(gens, uint64(1+rng.Intn(1<<uint(n-2)-1)))
				}
			}
		}
		diag := orbitDiag(rng, n, gens)
		label := fmt.Sprintf("trial %d n=%d generators %b", trial, n, gens)
		pivots, _ := symmetryPivots(diag, flipOf(t, diag), 1<<30)
		checkPivots(t, label, diag, pivots)
		if want := ruleH(n, bruteGroup(diag)); len(pivots) != want {
			t.Errorf("%s: %d pivots, the rule gives %d", label, len(pivots), want)
		}
	}
}

// TestSymmetryPivotsPlantedPolynomial: a dyadic polynomial whose terms
// all overlap two planted masks evenly, neither of which, nor their
// sum, touches the top qubit, has exactly their span as its group (a
// brute-force check) and takes no pivot. Planting the complement too
// (every term of even degree) gives pivots, as many as the rule finds
// in the brute-force group.
func TestSymmetryPivotsPlantedPolynomial(t *testing.T) {
	const n = 10
	planted := []uint64{0b0101100110, 0b0000011011}
	rng := rand.New(rand.NewSource(149))
	build := func(masks []uint64) poly.Terms {
		var ts poly.Terms
		for len(ts) < 80 {
			var qs []int
			var m uint64
			for d := 1 + rng.Intn(4); d > 0; d-- {
				q := rng.Intn(n)
				if m>>uint(q)&1 == 0 {
					qs, m = append(qs, q), m|1<<uint(q)
				}
			}
			even := true
			for _, p := range masks {
				even = even && bits.OnesCount64(m&p)%2 == 0
			}
			if even {
				ts = append(ts, poly.NewTerm(float64(1+rng.Intn(12))/4, qs...))
			}
		}
		return ts
	}
	low := Precompute(poly.Compile(build(planted)), n)
	if got := len(bruteGroup(low)); got != 4 {
		t.Fatalf("two low masks: the polynomial's group has %d elements, want the planted 4", got)
	}
	pivots := SymmetryPivots(low, flipOf(t, low))
	checkPivots(t, "two low masks", low, pivots)
	if len(pivots) != 0 {
		t.Errorf("two low masks: %d pivots, want none", len(pivots))
	}
	flip := Precompute(poly.Compile(build(append([]uint64{1<<n - 1}, planted...))), n)
	pivots = SymmetryPivots(flip, flipOf(t, flip))
	checkPivots(t, "with the complement", flip, pivots)
	if want := ruleH(n, bruteGroup(flip)); len(pivots) != want || want < 1 {
		t.Errorf("with the complement: %d pivots, the rule gives %d", len(pivots), want)
	}
}

// orbitDiag returns a 2^n diagonal fixed by the span of gens, with one
// random dyadic value per orbit.
func orbitDiag(rng *rand.Rand, n int, gens []uint64) []float64 {
	span := []uint64{0}
	for _, g := range gens {
		for _, s := range span {
			span = append(span, s^g)
		}
	}
	diag := make([]float64, 1<<uint(n))
	seen := make([]bool, len(diag))
	for x := range diag {
		if seen[x] {
			continue
		}
		v := float64(rng.Intn(1<<20)) / 4
		for _, s := range span {
			diag[uint64(x)^s], seen[uint64(x)^s] = v, true
		}
	}
	return diag
}

// TestSymmetryPivotsBudget: diagonals whose entries mostly tie with
// diag[0] keep the search within its read budget of searchPasses·2^n.
// A constant diagonal (every mask a symmetry, each verified by a full
// pass) still yields valid pivots, and a diagonal that is 0 except on
// the all-ones state and its neighbours that keep the top bit (group
// {0}, a candidate at nearly every mask, each rejected only after a
// long run of ties) yields none.
func TestSymmetryPivotsBudget(t *testing.T) {
	const n = 12
	constant := make([]float64, 1<<n)
	for i := range constant {
		constant[i] = 2.5
	}
	ties := make([]float64, 1<<n)
	for x := range ties {
		if bits.Len(uint(x)) == n && bits.OnesCount(uint(x)) >= n-1 {
			ties[x] = 1
		}
	}
	for _, c := range []struct {
		name string
		diag []float64
		h    int // −1: any
	}{{"constant", constant, -1}, {"ties", ties, 0}} {
		pivots, reads := symmetryPivots(c.diag, flipOf(t, c.diag), searchPasses*len(c.diag))
		checkPivots(t, c.name, c.diag, pivots)
		if c.h >= 0 && len(pivots) != c.h {
			t.Errorf("%s: %d pivots, want %d", c.name, len(pivots), c.h)
		}
		if c.h < 0 && len(pivots) == 0 {
			t.Errorf("%s: no pivots", c.name)
		}
		if limit := searchPasses * len(c.diag); reads > limit {
			t.Errorf("%s: %d reads, budget %d", c.name, reads, limit)
		}
		t.Logf("%s: %d pivots, %.2f passes", c.name, len(pivots), float64(reads)/float64(len(c.diag)))
	}
}

// TestAscending pins the cost order CVaR walks: ascending cost, ties by
// index, from the counting sort on codes and from the comparison sort
// on float64 entries alike.
func TestAscending(t *testing.T) {
	diag := []float64{2, 0.5, 2, 1, 0.5, 3, 1, 2}
	want := []int{1, 4, 3, 6, 0, 2, 7, 5}
	q, err := QuantizeExact(diag, 16)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]int{"codes": Ascending(nil, q), "float64": Ascending(diag, nil)} {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: order %v, want %v", name, got, want)
		}
	}
}

func TestMinMax(t *testing.T) {
	diag := []float64{3, -1, 4, -1, 5}
	lo, hi := MinMax(diag)
	if lo != -1 || hi != 5 {
		t.Fatalf("MinMax = (%v,%v)", lo, hi)
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
	for i := range diag {
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
	tab := phaseTable(q, gamma)
	statevec.ApplyPhase(viaTable, statevec.Phase{Diag: diag, Gamma: gamma, Codes: q.Codes, Tab: tab})
	if d := statevec.MaxAbsDiff(direct, viaTable); d > 1e-12 {
		t.Fatalf("quantized phase apply differs: %g", d)
	}
	// Each table entry is the sincos of its level, the value the
	// diagonal holds.
	for k := range tab {
		s, c := math.Sincos(-gamma * (q.Min + q.Scale*float64(k)))
		if tab[k] != complex(c, s) {
			t.Fatalf("PhaseTableInto[%d] = %v, want %v", k, tab[k], complex(c, s))
		}
	}
}

// phaseTable builds the phase table of every code q holds.
func phaseTable(q *Quantized, gamma float64) []complex128 {
	tab := make([]complex128, int(q.MaxCode())+1)
	q.PhaseTableInto(tab, gamma)
	return tab
}

func TestPhaseTableSize(t *testing.T) {
	q := &Quantized{Codes: []uint16{0, 3, 7}, Min: -2, Scale: 0.5}
	tab := phaseTable(q, 1.0)
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
		if tab := phaseTable(q, 0.7); len(tab) != 1 {
			t.Fatalf("constant %v: phase table size %d, want 1", c, len(tab))
		}

		// The table phase and the expectation agree with the float64 path.
		p := statevec.NewPool(1)
		v := statevec.NewUniform(2)
		direct := v.Clone()
		statevec.PhaseDiag(direct, diag, 0.7)
		statevec.ApplyPhase(v, statevec.Phase{Diag: diag, Gamma: 0.7, Codes: q.Codes, Tab: phaseTable(q, 0.7)})
		if d := statevec.MaxAbsDiff(direct, v); d > 1e-15 {
			t.Fatalf("constant %v: table phase differs by %g", c, d)
		}
		s := soaOf(v)
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
	tab := phaseTable(q, gamma)
	codesOnly := statevec.Phase{Gamma: gamma, Codes: q.Codes, Tab: tab, Min: q.Min, Scale: q.Scale}
	for name, ref := range map[string]statevec.Phase{
		"sincos": {Diag: diag, Gamma: gamma},
		"table":  {Diag: diag, Gamma: gamma, Codes: q.Codes, Tab: tab},
	} {
		a, b := soaOf(psi), soaOf(psi)
		statevec.ApplyPhasePlanes(p, a.Re, a.Im, ref)
		statevec.ApplyPhasePlanes(p, b.Re, b.Im, codesOnly)
		if d := statevec.MaxAbsDiff(vecOf(a), vecOf(b)); d > 0 {
			t.Errorf("%s: codes-only phase differs by %g", name, d)
		}
		if got, want := statevec.ExpectationPlanes(p, b.Re, b.Im, codesOnly), statevec.ExpectationPlanes(p, a.Re, a.Im, ref); got != want {
			t.Errorf("%s: codes-only expectation %v, want %v", name, got, want)
		}
		la, lb := soaOf(lam), soaOf(lam)
		got := statevec.ReversePhasePlanes(p, lb.Re, lb.Im, b.Re, b.Im, codesOnly, true)
		want := statevec.ReversePhasePlanes(p, la.Re, la.Im, a.Re, a.Im, ref, true)
		if got != want || statevec.MaxAbsDiff(vecOf(a), vecOf(b)) > 0 || statevec.MaxAbsDiff(vecOf(la), vecOf(lb)) > 0 {
			t.Errorf("%s: codes-only reverse phase %v, want %v (states must match bitwise)", name, got, want)
		}
		statevec.MulDiagPlanes(p, a.Re, a.Im, ref)
		statevec.MulDiagPlanes(p, b.Re, b.Im, codesOnly)
		if d := statevec.MaxAbsDiff(vecOf(a), vecOf(b)); d > 0 {
			t.Errorf("%s: codes-only MulDiag differs by %g", name, d)
		}
	}
}

// termLibrary returns the problem library at n qubits: LABS, LABS with
// a Z₀ field and with Z₀ and Z₁ fields, SK, portfolio, 3-SAT, and
// 3-regular MaxCut (4-regular at odd n) with and without a field.
func termLibrary(t *testing.T, n int) map[string]poly.Terms {
	t.Helper()
	labs := problems.LABSTerms(n)
	lib := map[string]poly.Terms{
		"labs":      labs,
		"labs+z0":   labs.Plus(poly.New(poly.NewTerm(1, 0))),
		"sk":        problems.SKTerms(n, int64(n)),
		"portfolio": problems.SyntheticPortfolio(n, max(1, n/2), 0.5, int64(n)).PortfolioTerms(),
	}
	if n >= 2 {
		lib["labs+z0+z1"] = lib["labs+z0"].Plus(poly.New(poly.NewTerm(1, 1)))
	}
	if n >= 3 {
		sat, err := problems.RandomKSAT(n, 3, 4*n, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		lib["3-sat"] = problems.SATTerms(sat)
	}
	if n >= 4 {
		g, err := graphs.RandomRegular(n, 3+n%2, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		maxcut := problems.MaxCutTerms(g)
		lib["maxcut"] = maxcut
		lib["maxcut+field"] = maxcut.Plus(poly.New(poly.NewTerm(0.5, n/2)))
	}
	return lib
}

// TestTermPivotsMatchScan: the pivots read off the terms
// (TermPivots, the null space of the canonical masks) are exactly the
// pivots the budgeted diagonal search finds (SymmetryPivots), and the
// flip bit is CheckDiagonal's, over the problem library at n = 1…16;
// and on random integer-weighted polynomials, whose diagonal groups
// are their term groups, they match a search given reads enough to
// finish.
func TestTermPivotsMatchScan(t *testing.T) {
	cases := 0
	for n := 1; n <= 16; n++ {
		for name, terms := range termLibrary(t, n) {
			c := poly.Compile(terms)
			diag := Precompute(c, n)
			flip := flipOf(t, diag)
			pivots, tflip := TermPivots(n, c.Masks)
			if want := SymmetryPivots(diag, flip); fmt.Sprint(pivots) != fmt.Sprint(want) || tflip != flip {
				t.Errorf("%s n=%d: term pivots %b flip %v, the search %b flip %v", name, n, pivots, tflip, want, flip)
			}
			cases++
		}
	}
	if cases < 90 {
		t.Fatalf("the library gave only %d cases", cases)
	}
	rng := rand.New(rand.NewSource(157))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		var terms poly.Terms
		for k := rng.Intn(2 * n); k >= 0; k-- {
			var vars []int
			for q := 0; q < n; q++ {
				if rng.Intn(3) == 0 {
					vars = append(vars, q)
				}
			}
			terms = append(terms, poly.NewTerm(float64(1+rng.Intn(5)), vars...))
		}
		c := poly.Compile(terms)
		diag := Precompute(c, n)
		want, _ := symmetryPivots(diag, flipOf(t, diag), 1<<30)
		if got, _ := TermPivots(n, c.Masks); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("trial %d n=%d masks %b: term pivots %b, the search %b", trial, n, c.Masks, got, want)
		}
	}
}

// TestTermPivotsWiderThanScan: where many entries tie with entry 0, the
// budgeted search stops early and the terms give the larger group. A
// constant at n = 10 takes h = 9 from the terms and 3 from the search;
// Z₀Z₁ alone takes 8 and 3. The term pivots fix the diagonal bitwise.
func TestTermPivotsWiderThanScan(t *testing.T) {
	const n = 10
	for _, c := range []struct {
		name         string
		terms        poly.Terms
		term, search int
	}{
		{"constant", poly.New(poly.NewTerm(0.5)), 9, 3},
		{"z0z1", poly.New(poly.NewTerm(1, 0, 1)), 8, 3},
	} {
		comp := poly.Compile(c.terms)
		diag := Precompute(comp, n)
		pivots, _ := TermPivots(n, comp.Masks)
		checkPivots(t, c.name, diag, pivots)
		if got := len(SymmetryPivots(diag, flipOf(t, diag))); len(pivots) != c.term || got != c.search {
			t.Errorf("%s: %d term pivots and %d searched, want %d and %d", c.name, len(pivots), got, c.term, c.search)
		}
	}
}

// TestStoredFormExpands: a stored form, coded or float64, built from
// the terms over their group expands to the full diagonal bit for bit
// (Expand, Range at every rank offset, Full), and its entries are the
// full diagonal's first 2^(n−h).
func TestStoredFormExpands(t *testing.T) {
	pool := statevec.NewPool(2)
	for _, n := range []int{8, 14} {
		for name, terms := range termLibrary(t, n) {
			c := poly.Compile(terms)
			want := Precompute(c, n)
			pivots, flip := TermPivots(n, c.Masks)
			s, err := NewStored(pool, c, n, pivots, flip)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s n=%d", name, n)
			if (s.Codes == nil) == (s.Diag == nil) || s.Len() != len(want)>>uint(len(pivots)) {
				t.Fatalf("%s: codes %v, float64 %v, %d entries", label, s.Codes != nil, s.Diag != nil, s.Len())
			}
			for i := 0; i < s.Len(); i++ {
				if math.Float64bits(s.Value(i)) != math.Float64bits(want[i]) {
					t.Fatalf("%s: stored entry %d = %v, want %v", label, i, s.Value(i), want[i])
				}
			}
			got := s.Expand()
			for x := range want {
				if math.Float64bits(got[x]) != math.Float64bits(want[x]) {
					t.Fatalf("%s: expanded entry %d = %v, want %v", label, x, got[x], want[x])
				}
			}
			part := make([]float64, len(want)/4)
			for r := 0; r < 4; r++ {
				s.Range(uint64(r*len(part)), part)
				for i, v := range part {
					if math.Float64bits(v) != math.Float64bits(want[r*len(part)+i]) {
						t.Fatalf("%s: Range entry %d = %v, want %v", label, r*len(part)+i, v, want[r*len(part)+i])
					}
				}
			}
			full := s.Over(nil)
			if len(full.Pivots) != 0 || full.Len() != len(want) || (full.Codes == nil) != (s.Codes == nil) {
				t.Fatalf("%s: Over(nil) has %d pivots, %d entries, codes %v", label, len(full.Pivots), full.Len(), full.Codes != nil)
			}
			if q, err := QuantizeExact(want, len(want)/PhaseTableRatio); err == nil && fmt.Sprint(q.Codes) != fmt.Sprint(full.Codes.Codes) {
				t.Errorf("%s: Over(nil)'s codes differ from quantizing the full diagonal", label)
			}
			for x := range want {
				if math.Float64bits(full.Value(x)) != math.Float64bits(want[x]) {
					t.Fatalf("%s: Over(nil) entry %d = %v, want %v", label, x, full.Value(x), want[x])
				}
			}
		}
	}
}

// soaOf converts v into split float64 planes.
func soaOf(v statevec.Vec) *statevec.SoA {
	s := &statevec.SoA{Re: make([]float64, len(v)), Im: make([]float64, len(v))}
	for i, a := range v {
		s.Re[i], s.Im[i] = real(a), imag(a)
	}
	return s
}

// vecOf converts split planes back to a complex128 vector.
func vecOf(s *statevec.SoA) statevec.Vec {
	v := make(statevec.Vec, len(s.Re))
	for i := range v {
		v[i] = complex(s.Re[i], s.Im[i])
	}
	return v
}
