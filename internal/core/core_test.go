package core

import (
	"errors"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"qokit/internal/costvec"
	"qokit/internal/evaluator"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

func allBackends() []Backend {
	return []Backend{BackendSerial, BackendSoA}
}

func randomAngles(rng *rand.Rand, p int) (gamma, beta []float64) {
	gamma = make([]float64, p)
	beta = make([]float64, p)
	for i := 0; i < p; i++ {
		gamma[i] = rng.Float64()*2 - 1
		beta[i] = rng.Float64()*2 - 1
	}
	return gamma, beta
}

func TestParseBackend(t *testing.T) {
	for name, want := range map[string]Backend{
		"": BackendAuto, "auto": BackendAuto,
		"serial": BackendSerial, "python": BackendSerial,
		"soa": BackendSoA, "nbcuda": BackendSoA, "gpu": BackendSoA,
		// QOKit's pooled "c" class and the former Parallel backend's
		// name resolve to the one pooled engine.
		"parallel": BackendSoA, "c": BackendSoA,
	} {
		got, err := ParseBackend(name)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseBackend("cuda"); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestConstructionErrors(t *testing.T) {
	ts := poly.New(poly.NewTerm(1, 0, 1))
	if _, err := New(1, ts, Options{}); err == nil {
		t.Error("terms referencing qubit 1 accepted for n=1")
	}
	if _, err := New(0, nil, Options{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewFromDiagonal(3, make([]float64, 7), Options{}); err == nil {
		t.Error("wrong diagonal length accepted")
	}
	if _, err := New(2, ts, Options{Mixer: Mixer(99)}); err == nil {
		t.Error("unknown mixer accepted")
	}
	if _, err := New(2, ts, Options{Backend: Backend(7)}); err == nil || !strings.Contains(err.Error(), "unknown backend Backend(7)") {
		t.Errorf("unknown backend: error %v, want one naming Backend(7)", err)
	}
	if _, err := New(2, ts, Options{InitialState: statevec.New(3)}); err == nil {
		t.Error("wrong initial state length accepted")
	}
	if _, err := New(2, ts, Options{Mixer: MixerXYRing, HammingWeight: 5}); err == nil {
		t.Error("infeasible Hamming weight accepted")
	}
}

func TestSimulateQAOAValidation(t *testing.T) {
	s, err := New(3, problems.LABSTerms(3), Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SimulateQAOA([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched parameter lengths accepted")
	}
	r, err := s.SimulateQAOA(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := statevec.MaxAbsDiff(r.StateVector(), statevec.NewUniform(3)); d > 1e-12 {
		t.Errorf("p=0 state differs from initial: %g", d)
	}
}

// TestApplyLayerValidation: ApplyLayer and SimulateQAOAInto return an
// error, and leave a valid state untouched, for a nil Result, a Result
// of another simulator's size or backend and (ApplyLayer) a NaN or
// infinite angle, on every backend.
func TestApplyLayerValidation(t *testing.T) {
	for _, opts := range []Options{{Backend: BackendSerial}, {Backend: BackendSoA}, {Backend: BackendSoA, SinglePrecision: true}} {
		s, err := New(6, problems.LABSTerms(6), opts)
		if err != nil {
			t.Fatal(err)
		}
		other, err := New(5, problems.LABSTerms(5), opts)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.SimulateQAOA([]float64{0.3}, []float64{0.4})
		if err != nil {
			t.Fatal(err)
		}
		want := r.StateVector()
		if err := s.ApplyLayer(nil, 0.1, 0.2); err == nil {
			t.Errorf("%v: ApplyLayer(nil) accepted", s.Backend())
		}
		if err := s.SimulateQAOAInto(nil, []float64{0.1}, []float64{0.2}); err == nil {
			t.Errorf("%v: SimulateQAOAInto(nil) accepted", s.Backend())
		}
		if err := s.ApplyLayer(other.NewResult(), 0.1, 0.2); err == nil {
			t.Errorf("%v: ApplyLayer on another simulator's Result accepted", s.Backend())
		}
		for _, bad := range [][2]float64{{math.NaN(), 0.2}, {0.1, math.Inf(1)}, {math.Inf(-1), 0.2}} {
			if err := s.ApplyLayer(r, bad[0], bad[1]); !errors.Is(err, evaluator.ErrNonFiniteAngle) {
				t.Errorf("%v: ApplyLayer(%v, %v) error %v, want ErrNonFiniteAngle", s.Backend(), bad[0], bad[1], err)
			}
		}
		if d := statevec.MaxAbsDiff(r.StateVector(), want); d != 0 || math.IsNaN(r.Expectation()) {
			t.Errorf("%v: rejected layers changed the state by %g", s.Backend(), d)
		}
	}
}

func TestBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g, err := graphs.RandomRegular(8, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, mixer := range []Mixer{MixerX, MixerXYRing, MixerXYComplete} {
		gamma, beta := randomAngles(rng, 3)
		var ref statevec.Vec
		var refE, refOv float64
		for _, backend := range allBackends() {
			s, err := New(8, problems.MaxCutTerms(g), Options{Backend: backend, Mixer: mixer, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.SimulateQAOA(gamma, beta)
			if err != nil {
				t.Fatal(err)
			}
			sv := r.StateVector()
			if math.Abs(r.Norm()-1) > 1e-10 {
				t.Fatalf("%v/%v: norm %v", backend, mixer, r.Norm())
			}
			if ref == nil {
				ref, refE, refOv = sv, r.Expectation(), r.Overlap()
				continue
			}
			if d := statevec.MaxAbsDiff(sv, ref); d > 1e-10 {
				t.Errorf("%v/%v state differs from serial: %g", backend, mixer, d)
			}
			if e := r.Expectation(); math.Abs(e-refE) > 1e-9 {
				t.Errorf("%v/%v expectation %v, want %v", backend, mixer, e, refE)
			}
			if o := r.Overlap(); math.Abs(o-refOv) > 1e-9 {
				t.Errorf("%v/%v overlap %v, want %v", backend, mixer, o, refOv)
			}
		}
	}
}

func TestXMixerViaFWHTReference(t *testing.T) {
	// Independent reference for the whole QAOA evolution: apply the
	// phase from the diagonal, then the mixer as H^⊗n · diag(e^{−iβ(n−2|x|)}) · H^⊗n.
	rng := rand.New(rand.NewSource(32))
	n, p := 7, 4
	ts := problems.LABSTerms(n)
	s, err := New(n, ts, Options{Backend: BackendSoA})
	if err != nil {
		t.Fatal(err)
	}
	gamma, beta := randomAngles(rng, p)
	r, err := s.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}

	ref := statevec.NewUniform(n)
	diag := s.CostDiagonal()
	xdiag := make([]float64, len(ref))
	for x := range xdiag {
		xdiag[x] = float64(n - 2*bits.OnesCount(uint(x)))
	}
	for l := 0; l < p; l++ {
		statevec.PhaseDiag(ref, diag, gamma[l])
		statevec.FWHT(ref)
		statevec.PhaseDiag(ref, xdiag, beta[l])
		statevec.FWHT(ref)
	}
	if d := statevec.MaxAbsDiff(r.StateVector(), ref); d > 1e-9 {
		t.Errorf("SoA QAOA vs FWHT reference: %g", d)
	}
}

func TestSingleQubitAnalytic(t *testing.T) {
	// n=1, C = w·s0, p=1: state = e^{−iβX} diag(e^{−iγw}, e^{iγw}) |+⟩.
	w, gammaA, betaA := 0.8, 0.9, 0.4
	s, err := New(1, poly.New(poly.NewTerm(w, 0)), Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.SimulateQAOA([]float64{gammaA}, []float64{betaA})
	if err != nil {
		t.Fatal(err)
	}
	amp0 := cmplx.Exp(complex(0, -gammaA*w)) / complex(math.Sqrt2, 0)
	amp1 := cmplx.Exp(complex(0, gammaA*w)) / complex(math.Sqrt2, 0)
	c, sn := complex(math.Cos(betaA), 0), complex(0, -math.Sin(betaA))
	want0 := c*amp0 + sn*amp1
	want1 := sn*amp0 + c*amp1
	sv := r.StateVector()
	if cmplx.Abs(sv[0]-want0)+cmplx.Abs(sv[1]-want1) > 1e-12 {
		t.Errorf("analytic mismatch: got %v, want (%v, %v)", sv, want0, want1)
	}
	wantE := w*(real(want0)*real(want0)+imag(want0)*imag(want0)) - w*(real(want1)*real(want1)+imag(want1)*imag(want1))
	if e := r.Expectation(); math.Abs(e-wantE) > 1e-12 {
		t.Errorf("expectation %v, want %v", e, wantE)
	}
}

func TestXYMixersPreserveDickeSector(t *testing.T) {
	n, k := 6, 3
	for _, mixer := range []Mixer{MixerXYRing, MixerXYComplete} {
		s, err := New(n, problems.LABSTerms(n), Options{Backend: BackendSoA, Mixer: mixer, HammingWeight: k})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.SimulateQAOA([]float64{0.7, 0.3}, []float64{0.5, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		sv := r.StateVector()
		var inSector float64
		for x, a := range sv {
			p := real(a)*real(a) + imag(a)*imag(a)
			if bits.OnesCount(uint(x)) == k {
				inSector += p
			} else if p > 1e-20 {
				t.Fatalf("%v: probability leak %g at weight-%d state %b", mixer, p, bits.OnesCount(uint(x)), x)
			}
		}
		if math.Abs(inSector-1) > 1e-10 {
			t.Errorf("%v: sector probability %v", mixer, inSector)
		}
	}
}

func TestGroundStatesRestrictedForXY(t *testing.T) {
	// With the xy mixer the overlap target is the best weight-k state.
	diag := []float64{ // n=2: states 00,01,10,11
		-5, // 00 (weight 0) — global min, infeasible for k=1
		1,  // 01
		-2, // 10 — feasible min
		0,  // 11
	}
	s, err := NewFromDiagonal(2, diag, Options{Mixer: MixerXYRing, HammingWeight: 1, Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	if s.MinCost() != -2 {
		t.Errorf("MinCost = %v, want −2 (feasible min)", s.MinCost())
	}
	gs := s.GroundStates()
	if len(gs) != 1 || gs[0] != 2 {
		t.Errorf("GroundStates = %v, want [2]", gs)
	}
	// For MixerX the unrestricted min applies.
	sx, err := NewFromDiagonal(2, diag, Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	if sx.MinCost() != -5 {
		t.Errorf("x-mixer MinCost = %v, want −5", sx.MinCost())
	}
}

func TestApplyLayerIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n, p := 6, 5
	ts := problems.LABSTerms(n)
	gamma, beta := randomAngles(rng, p)
	for _, backend := range allBackends() {
		s, err := New(n, ts, Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		whole, err := s.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := s.SimulateQAOA(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < p; l++ {
			if err := s.ApplyLayer(inc, gamma[l], beta[l]); err != nil {
				t.Fatal(err)
			}
		}
		if d := statevec.MaxAbsDiff(whole.StateVector(), inc.StateVector()); d > 1e-11 {
			t.Errorf("%v: incremental layers differ: %g", backend, d)
		}
	}
}

func TestCustomInitialState(t *testing.T) {
	n := 4
	init := statevec.NewBasis(n, 7)
	s, err := New(n, problems.LABSTerms(n), Options{Backend: BackendSerial, InitialState: init})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.SimulateQAOA(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := statevec.MaxAbsDiff(r.StateVector(), init); d > 1e-15 {
		t.Errorf("initial state not honored: %g", d)
	}
	// The stored copy must be independent of the caller's slice.
	init[7] = 0
	init[0] = 1
	r2, _ := s.SimulateQAOA(nil, nil)
	if cmplx.Abs(r2.StateVector()[7]-1) > 1e-15 {
		t.Error("simulator aliased the caller's initial state")
	}
}

func TestProbabilitiesAndPreserveState(t *testing.T) {
	n := 5
	ts := problems.LABSTerms(n)
	s, err := New(n, ts, Options{Backend: BackendSoA})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.SimulateQAOA([]float64{0.4}, []float64{0.7})
	if err != nil {
		t.Fatal(err)
	}
	want := r.StateVector().Probabilities(nil)
	got := r.Probabilities(nil, true)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("probabilities differ at %d", i)
		}
	}
	var sum float64
	for _, p := range got {
		sum += p
	}
	if math.Abs(sum-1) > 1e-10 {
		t.Errorf("probabilities sum to %v", sum)
	}
	// Destructive path returns the same values.
	got2 := r.Probabilities(nil, false)
	for i := range want {
		if math.Abs(got2[i]-want[i]) > 1e-12 {
			t.Fatalf("destructive probabilities differ at %d", i)
		}
	}
}

func TestExpectationMatchesManualSum(t *testing.T) {
	n := 6
	g, err := graphs.RandomRegular(n, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	ts := problems.MaxCutTerms(g)
	s, err := New(n, ts, Options{Backend: BackendSoA, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.SimulateQAOA([]float64{0.3, 0.8}, []float64{0.6, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	probs := r.Probabilities(nil, true)
	var want float64
	for x, p := range probs {
		want += p * -float64(g.CutValue(uint64(x)))
	}
	if got := r.Expectation(); math.Abs(got-want) > 1e-9 {
		t.Errorf("expectation %v, want %v", got, want)
	}
	// And the custom-diagonal variant, which rejects a diagonal of the
	// wrong length with a named error instead of panicking.
	got, err := r.ExpectationOf(s.CostDiagonal())
	if err != nil || math.Abs(got-want) > 1e-9 {
		t.Errorf("ExpectationOf = %v, %v; want %v", got, err, want)
	}
	for _, bad := range [][]float64{nil, make([]float64, len(probs)/2), make([]float64, len(probs)+1)} {
		if _, err := r.ExpectationOf(bad); !errors.Is(err, ErrObservableLength) {
			t.Errorf("ExpectationOf(len %d) error = %v, want ErrObservableLength", len(bad), err)
		}
	}
}

func TestExpectationNeverBelowMin(t *testing.T) {
	n := 6
	ts := problems.LABSTerms(n)
	s, err := New(n, ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 10; trial++ {
		gamma, beta := randomAngles(rng, 3)
		r, err := s.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		if e := r.Expectation(); e < s.MinCost()-1e-9 {
			t.Fatalf("expectation %v below ground energy %v", e, s.MinCost())
		}
	}
}

func TestSinglePrecisionTracksDouble(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	n := 8
	for _, mixer := range []Mixer{MixerX, MixerXYRing} {
		ts := problems.LABSTerms(n)
		double, err := New(n, ts, Options{Backend: BackendSoA, Mixer: mixer})
		if err != nil {
			t.Fatal(err)
		}
		single, err := New(n, ts, Options{Backend: BackendSoA, Mixer: mixer, SinglePrecision: true})
		if err != nil {
			t.Fatal(err)
		}
		gamma, beta := randomAngles(rng, 4)
		r64, err := double.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		r32, err := single.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		if d := statevec.MaxAbsDiff(r64.StateVector(), r32.StateVector()); d > 1e-4 {
			t.Errorf("mixer=%v: float32 state deviates by %g", mixer, d)
		}
		if math.Abs(r32.Norm()-1) > 1e-5 {
			t.Errorf("mixer=%v: float32 norm drift %g", mixer, r32.Norm()-1)
		}
		if math.Abs(r64.Expectation()-r32.Expectation()) > 1e-3 {
			t.Errorf("mixer=%v: expectation gap %g", mixer, r64.Expectation()-r32.Expectation())
		}
		if math.Abs(r64.Overlap()-r32.Overlap()) > 1e-4 {
			t.Errorf("mixer=%v: overlap gap %g", mixer, r64.Overlap()-r32.Overlap())
		}
		p64 := r64.Probabilities(nil, true)
		p32 := r32.Probabilities(nil, true)
		for i := range p64 {
			if math.Abs(p64[i]-p32[i]) > 1e-5 {
				t.Fatalf("mixer=%v: probability %d gap %g", mixer, i, p64[i]-p32[i])
			}
		}
	}
}

func TestSinglePrecisionValidation(t *testing.T) {
	ts := problems.LABSTerms(4)
	if _, err := New(4, ts, Options{Backend: BackendSerial, SinglePrecision: true}); err == nil {
		t.Error("SinglePrecision with serial backend accepted")
	}
	// Auto backend resolves to SoA, so it must be accepted.
	if _, err := New(4, ts, Options{SinglePrecision: true}); err != nil {
		t.Errorf("SinglePrecision with auto backend rejected: %v", err)
	}
}

// TestPhaseTableRule pins which diagonals take phase tables: the
// decision reads the diagonal alone — an exact affine grid with at
// most 2^n/16 points. A group state quantizes its stored indices only,
// under the same level bound, and its codes are the stored prefix of
// the full diagonal's.
func TestPhaseTableRule(t *testing.T) {
	g, err := graphs.RandomRegular(12, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		n     int
		terms poly.Terms
		opts  Options
		table bool
	}{
		{"labs n=14", 14, problems.LABSTerms(14), Options{}, true},
		{"labs n=12 (≈500 levels > 2^12/16)", 12, problems.LABSTerms(12), Options{}, false},
		{"labs n=14 float32", 14, problems.LABSTerms(14), Options{SinglePrecision: true}, true},
		{"labs n=14 explicit start", 14, problems.LABSTerms(14), Options{InitialState: statevec.NewUniform(14)}, true},
		{"maxcut n=12", 12, problems.MaxCutTerms(g), Options{Backend: BackendSerial}, true},
		{"maxcut n=12 soa", 12, problems.MaxCutTerms(g), Options{}, true},
		{"weighted maxcut n=12", 12, problems.MaxCutTerms(g).Scale(math.Pi), Options{}, false},
		{"sk n=12", 12, skTerms(12, 3), Options{}, false},
	} {
		s, err := New(c.n, c.terms, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		requireTableSide(t, c.label, s, c.table)
		if len(s.group()) > 1 && s.eng.Form().Codes != nil {
			diag := s.CostDiagonal()
			full, err := costvec.QuantizeExact(diag, len(diag)/costvec.PhaseTableRatio)
			if err != nil || !slices.Equal(s.eng.Form().Codes.Codes, full.Codes[:s.eng.Len()]) {
				t.Errorf("%s: group-state codes are not the stored prefix of the full diagonal's (%v)", c.label, err)
			}
		}
	}
}

// TestQuantizedSoAWarmAllocs bounds what a warm evaluation on the
// phase-table path of the SoA backend allocates: the per-γ phase table
// lives in the Result (a few KiB, built once), so an energy or a
// gradient allocates well under one state buffer (16·2^n bytes) — only
// the kernels' per-launch closures remain.
func TestQuantizedSoAWarmAllocs(t *testing.T) {
	const n, p, runs = 14, 4, 5
	s, err := New(n, problems.LABSTerms(n), Options{Backend: BackendSoA, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireTableSide(t, "labs n=14", s, true)
	gamma, beta := randomAngles(rand.New(rand.NewSource(38)), p)
	r := s.NewResult()
	w := s.NewGradBuffers()
	gG, gB := make([]float64, p), make([]float64, p)
	for name, eval := range map[string]func(){
		"energy": func() {
			if err := s.SimulateQAOAInto(r, gamma, beta); err != nil {
				t.Fatal(err)
			}
		},
		"gradient": func() {
			if _, err := s.SimulateQAOAGradInto(w, gamma, beta, gG, gB); err != nil {
				t.Fatal(err)
			}
		},
	} {
		eval() // warm-up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			eval()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 16<<n {
			t.Errorf("warm quantized %s allocates %d B per evaluation, want < %d (one state buffer)", name, per, 16<<n)
		}
	}
}

func TestMixerAndBackendStrings(t *testing.T) {
	if BackendSoA.String() != "soa" || MixerXYRing.String() != "xy-ring" || RouteSweep.String() != "sweep" {
		t.Error("String() labels changed")
	}
	// Every backend name ParseBackend accepts renders as the canonical
	// name of the backend it resolves to: parallel and c print as soa.
	for name, want := range map[string]string{"parallel": "soa", "c": "soa", "python": "serial", "": "auto"} {
		if b, err := ParseBackend(name); err != nil || b.String() != want {
			t.Errorf("ParseBackend(%q).String() = %q (%v), want %q", name, b.String(), err, want)
		}
	}
	if Backend(42).String() == "" || Mixer(42).String() == "" {
		t.Error("unknown values must render non-empty")
	}
}

// TestNewFromDiagonalSharesStorage: a simulator built from a diagonal
// that is not an exact grid keeps the caller's float64 entries, not a
// copy, while CostDiagonal hands out a fresh expansion that a caller
// may mutate freely.
func TestNewFromDiagonalSharesStorage(t *testing.T) {
	diag := costvec.Precompute(poly.Compile(problems.LABSTerms(4)), 4)
	s, err := NewFromDiagonal(4, diag, Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	if &s.serial.diag[0] != &diag[0] {
		t.Error("NewFromDiagonal copied the diagonal; documented as shared")
	}
	got := s.CostDiagonal()
	if &got[0] == &diag[0] || !slices.Equal(got, diag) {
		t.Error("CostDiagonal must return a fresh copy of the diagonal")
	}
}

// constructionBytes returns what build allocates, by runtime.MemStats'
// TotalAlloc, which garbage collection does not lower.
func constructionBytes(t *testing.T, build func() (*Simulator, error)) (*Simulator, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := build()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return s, after.TotalAlloc - before.TotalAlloc
}

// TestGroundStatesBuiltOnFirstUse: a diagonal with 2^(n−1) tied minima
// (0 on the lower half, 1 on the upper; symmetry group {0}) builds
// without its argmin list. Construction keeps the 2 B-per-entry level
// codes and allocates less than the 8·2^(n−1) bytes the list alone
// takes. MinCost and GroundStates, called first from several goroutines
// at once (run under -race), still return 0 and every tied index, the
// same slice to every caller.
func TestGroundStatesBuiltOnFirstUse(t *testing.T) {
	const n, callers = 16, 4
	diag := make([]float64, 1<<n)
	for x := 1 << (n - 1); x < len(diag); x++ {
		diag[x] = 1
	}
	s, bytes := constructionBytes(t, func() (*Simulator, error) { return NewFromDiagonal(n, diag, Options{Workers: 1}) })
	requirePivots(t, "tied minima", s, 0)
	if bound := uint64(8 << (n - 1)); bytes >= bound {
		t.Errorf("construction allocated %d B, want < %d (the argmin list of 2^(n−1) entries alone)", bytes, bound)
	}
	lists := make([][]uint64, callers)
	mins := make([]float64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				mins[i], lists[i] = s.MinCost(), s.GroundStates()
			} else {
				lists[i], mins[i] = s.GroundStates(), s.MinCost()
			}
		}(i)
	}
	wg.Wait()
	for i, got := range lists {
		if mins[i] != 0 || len(got) != 1<<(n-1) {
			t.Fatalf("caller %d: MinCost %v with %d ground states, want 0 with %d", i, mins[i], len(got), 1<<(n-1))
		}
		if &got[0] != &lists[0][0] {
			t.Errorf("caller %d got its own ground-state list", i)
		}
		for x, v := range got {
			if v != uint64(x) {
				t.Fatalf("caller %d: ground state %d is %d, want %d", i, x, v, x)
			}
		}
	}
}

// TestUniformStartKeepsNoVector: a simulator with the |+⟩ start keeps no
// 2^n initial vector. Building LABS n = 18 (a quarter state) from its
// diagonal allocates less than one 2^n complex128 vector, 16·2^n bytes.
// The start each backend writes, and InitialState's copy, equal
// statevec.NewUniform's amplitudes bit for bit (rounded to float32 on
// SoA32).
func TestUniformStartKeepsNoVector(t *testing.T) {
	const n = 18
	diag := costvec.Precompute(poly.Compile(problems.LABSTerms(n)), n)
	s, bytes := constructionBytes(t, func() (*Simulator, error) { return NewFromDiagonal(n, diag, Options{Workers: 1}) })
	requirePivots(t, "labs n=18", s, 2)
	if bound := uint64(16 << n); bytes >= bound {
		t.Errorf("construction allocated %d B, want < %d (one 2^n complex128 vector)", bytes, bound)
	}
	const small = 6
	want := statevec.NewUniform(small)
	for _, opts := range []Options{{Backend: BackendSerial}, {Workers: 1}, {Workers: 1, SinglePrecision: true}} {
		sim, err := New(small, problems.LABSTerms(small), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sim.InitialState(), want) {
			t.Errorf("%+v: InitialState differs from the uniform vector", opts)
		}
		r, err := sim.SimulateQAOA(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		amp := real(want[0])
		if opts.SinglePrecision {
			amp = float64(float32(amp))
		}
		for x, a := range r.StateVector() {
			if a != complex(amp, 0) {
				t.Fatalf("%+v: amplitude %d is %v, want %v", opts, x, a, amp)
			}
		}
	}
}

func TestRingSweepCoversRing(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 9} {
		edges := ringSweep(n)
		want := graphs.Ring(n).NumEdges()
		if len(edges) != want {
			t.Errorf("n=%d: sweep has %d edges, ring has %d", n, len(edges), want)
		}
		ring := graphs.Ring(n)
		for _, e := range edges {
			if !ring.HasEdge(e.U, e.V) {
				t.Errorf("n=%d: sweep edge (%d,%d) not in ring", n, e.U, e.V)
			}
		}
	}
}

// hashedDiag is a deterministic integer-valued test diagonal with no
// bit-flip symmetry, so every backend keeps the full state.
func hashedDiag(n int) []float64 {
	diag := make([]float64, 1<<uint(n))
	for i := range diag {
		diag[i] = float64((i*2654435761)%17) - 8
	}
	return diag
}

// TestEvaluationsDeterministicAtN18 pins that a result depends only on
// the inputs at n = 18, the size from which kernels were once chosen by
// timing them. The first and second evaluations of one simulator, and
// an evaluation on a second simulator over the same diagonal, must give
// bit-identical states. Workers: 3 keeps the shape apart from every
// other test in the package.
func TestEvaluationsDeterministicAtN18(t *testing.T) {
	const n = 18
	diag := hashedDiag(n)
	gamma := []float64{0.6, -0.2, 0.35}
	beta := []float64{0.3, 0.7, -0.4}
	opts := Options{Workers: 3}
	s1, err := NewFromDiagonal(n, diag, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewFromDiagonal(n, diag, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := s1.MixerRoute(); got != RouteSweep {
		t.Errorf("MixerRoute() = %v, want sweep", got)
	}
	var states [3]statevec.Vec
	for i, s := range []*Simulator{s1, s1, s2} {
		r, err := s.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = r.StateVector()
	}
	for i, label := range []string{"second evaluation", "second simulator"} {
		differ := 0
		for x, a := range states[0] {
			if states[i+1][x] != a {
				differ++
			}
		}
		if differ != 0 {
			t.Errorf("%s differs from the first evaluation in %d of %d amplitudes", label, differ, len(states[0]))
		}
	}
}
