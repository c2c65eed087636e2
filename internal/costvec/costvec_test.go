package costvec

import (
	"math"
	"math/rand"
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
			if math.Abs(serial[i]-pooled[i]) > 1e-12 {
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
	// LABS energies are integers; quantization at scale 1 must be exact.
	n := 12
	diag := Precompute(poly.Compile(problems.LABSTerms(n)), n)
	q, err := Quantize(diag, 1)
	if err != nil {
		t.Fatal(err)
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
	// MaxCut with odd |E| has half-integer offsets; scale ½ is exact.
	g := graphs.Ring(5) // 5 edges → offset −2.5
	diag := Precompute(poly.Compile(problems.MaxCutTerms(g)), 5)
	if _, err := Quantize(diag, 1); err == nil {
		// −cut is integral, actually: f = −cut exactly. So scale 1 works;
		// adjust the check to assert success both ways.
		q, err := Quantize(diag, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range diag {
			if q.Value(i) != diag[i] {
				t.Fatalf("lossy at %d", i)
			}
		}
	}
	qa, err := QuantizeAuto(diag)
	if err != nil {
		t.Fatal(err)
	}
	for i := range diag {
		if qa.Value(i) != diag[i] {
			t.Fatalf("QuantizeAuto lossy at %d: %v vs %v", i, qa.Value(i), diag[i])
		}
	}
}

func TestQuantizeErrors(t *testing.T) {
	if _, err := Quantize([]float64{0, 1}, 0); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := Quantize([]float64{0, 1}, -1); err == nil {
		t.Error("negative scale accepted")
	}
	if _, err := Quantize([]float64{0, 70000}, 1); err == nil {
		t.Error("range overflow accepted")
	}
	if _, err := Quantize([]float64{0, 0.3}, 1); err == nil {
		t.Error("non-representable value accepted")
	}
	if _, err := QuantizeAuto([]float64{0, math.Pi}); err == nil {
		t.Error("irrational diagonal accepted by QuantizeAuto")
	}
}

// TestQuantizeExact pins the bitwise rule that decides whether a
// diagonal takes phase tables: integer costs pass and round-trip bit
// for bit, while values off the grid by far less than QuantizeAuto's
// tolerance, Gaussian couplings, NaN and grids wider than maxLevels
// fail.
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
	if _, err := QuantizeAuto(offGrid); err != nil {
		t.Errorf("QuantizeAuto rejected a value within its tolerance: %v", err)
	}
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
	q, err := Quantize(diag, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := statevec.NewPool(2)
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

	eDirect := statevec.ExpectationDiag(direct, diag)
	eQuant := q.ExpectationQuantized(p, viaTable)
	if math.Abs(eDirect-eQuant) > 1e-9 {
		t.Fatalf("quantized expectation %v, want %v", eQuant, eDirect)
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
// and Value, Expand, PhaseTable, the table phase, and the expectation
// stay exact.
func TestQuantizeConstantDiagonal(t *testing.T) {
	for _, c := range []float64{0, -3.5, 7} {
		diag := []float64{c, c, c, c}
		for name, quantize := range map[string]func() (*Quantized, error){
			"Quantize(scale=1)":   func() (*Quantized, error) { return Quantize(diag, 1) },
			"Quantize(scale=0.5)": func() (*Quantized, error) { return Quantize(diag, 0.5) },
			"QuantizeAuto":        func() (*Quantized, error) { return QuantizeAuto(diag) },
			"QuantizeRange":       func() (*Quantized, error) { return QuantizeRange(diag, c, 0) },
		} {
			q, err := quantize()
			if err != nil {
				t.Fatalf("%s on constant %v: %v", name, c, err)
			}
			if q.Scale != 0 || q.Min != c {
				t.Fatalf("%s on constant %v: (Min, Scale) = (%v, %v), want (%v, 0)", name, c, q.Min, q.Scale, c)
			}
			for i := range diag {
				if q.Codes[i] != 0 {
					t.Fatalf("%s: code[%d] = %d, want 0", name, i, q.Codes[i])
				}
				if q.Value(i) != c {
					t.Fatalf("%s: Value(%d) = %v, want %v", name, i, q.Value(i), c)
				}
			}
			if got := q.Expand(); got[0] != c {
				t.Fatalf("%s: Expand()[0] = %v, want %v", name, got[0], c)
			}
			if tab := q.PhaseTable(0.7); len(tab) != 1 {
				t.Fatalf("%s: PhaseTable size %d, want 1", name, len(tab))
			}
		}

		// The table phase and the expectation agree with the float64 path.
		q, err := QuantizeAuto(diag)
		if err != nil {
			t.Fatal(err)
		}
		p := statevec.NewPool(1)
		v := statevec.NewUniform(2)
		direct := v.Clone()
		statevec.PhaseDiag(direct, diag, 0.7)
		statevec.ApplyPhase(v, statevec.Phase{Diag: diag, Gamma: 0.7, Codes: q.Codes, Tab: q.PhaseTable(0.7)})
		if d := statevec.MaxAbsDiff(direct, v); d > 1e-15 {
			t.Fatalf("constant %v: quantized phase differs by %g", c, d)
		}
		if got, want := q.ExpectationQuantized(p, v), statevec.ExpectationDiag(direct, diag); math.Abs(got-want) > 1e-12 {
			t.Fatalf("constant %v: expectation %v, want %v", c, got, want)
		}
	}
}

// TestQuantizeRangeShards checks the distributed contract: slicing a
// diagonal into shards, quantizing each against the whole diagonal's
// (min, scale), and concatenating the codes must reproduce the
// monolithic quantization exactly.
func TestQuantizeRangeShards(t *testing.T) {
	n := 10
	diag := Precompute(poly.Compile(problems.LABSTerms(n)), n)
	whole, err := Quantize(diag, 1)
	if err != nil {
		t.Fatal(err)
	}
	shardLen := len(diag) / 8
	for r := 0; r < 8; r++ {
		shard := diag[r*shardLen : (r+1)*shardLen]
		q, err := QuantizeRange(shard, whole.Min, whole.Scale)
		if err != nil {
			t.Fatalf("shard %d: %v", r, err)
		}
		if q.Min != whole.Min || q.Scale != whole.Scale {
			t.Fatalf("shard %d: (Min, Scale) = (%v, %v), want (%v, %v)", r, q.Min, q.Scale, whole.Min, whole.Scale)
		}
		for i := range shard {
			if q.Codes[i] != whole.Codes[r*shardLen+i] {
				t.Fatalf("shard %d code %d: %d != monolithic %d", r, i, q.Codes[i], whole.Codes[r*shardLen+i])
			}
			if q.Value(i) != shard[i] {
				t.Fatalf("shard %d: Value(%d) = %v, want %v", r, i, q.Value(i), shard[i])
			}
		}
		if !CanQuantizeRange(shard, whole.Min, whole.Scale) {
			t.Fatalf("shard %d: CanQuantizeRange false for a workable (min, scale)", r)
		}
	}
}

func TestQuantizeRangeErrors(t *testing.T) {
	if _, err := QuantizeRange([]float64{0, 1}, 0, -1); err == nil {
		t.Error("negative scale accepted")
	}
	if _, err := QuantizeRange([]float64{0, 1}, 0, 0); err == nil {
		t.Error("scale 0 accepted for a non-constant shard")
	}
	if _, err := QuantizeRange([]float64{-1, 0}, 0, 1); err == nil {
		t.Error("value below min accepted (negative code)")
	}
	if _, err := QuantizeRange([]float64{0, 70000}, 0, 1); err == nil {
		t.Error("code above uint16 capacity accepted")
	}
	if _, err := QuantizeRange([]float64{0, 0.3}, 0, 1); err == nil {
		t.Error("non-representable value accepted")
	}
	for _, c := range []struct {
		diag       []float64
		min, scale float64
		want       bool
	}{
		{[]float64{0, 1, 2}, 0, 1, true},
		{[]float64{5, 5}, 5, 0, true},
		{[]float64{5, 6}, 5, 0, false},
		{[]float64{0, 0.3}, 0, 1, false},
		{[]float64{0, 1}, 0, -1, false},
	} {
		if got := CanQuantizeRange(c.diag, c.min, c.scale); got != c.want {
			t.Errorf("CanQuantizeRange(%v, %v, %v) = %t, want %t", c.diag, c.min, c.scale, got, c.want)
		}
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
	q, err := QuantizeAuto(diag)
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
