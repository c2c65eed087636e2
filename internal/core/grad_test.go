package core

import (
	"math"
	"math/rand"
	"testing"

	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
)

// skTerms builds a Sherrington–Kirkpatrick instance: all-to-all random
// Gaussian couplings J_ij/√n.
func skTerms(n int, seed int64) poly.Terms {
	rng := rand.New(rand.NewSource(seed))
	var ts poly.Terms
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ts = append(ts, poly.NewTerm(rng.NormFloat64()/math.Sqrt(float64(n)), i, j))
		}
	}
	return ts
}

// fdGrad computes the central finite-difference gradient of the QAOA
// objective through one reusable Result buffer — the reference every
// adjoint gradient is verified against.
func fdGrad(t *testing.T, s *Simulator, gamma, beta []float64, h float64) (gG, gB []float64) {
	t.Helper()
	r := s.NewResult()
	eval := func() float64 {
		if err := s.SimulateQAOAInto(r, gamma, beta); err != nil {
			t.Fatal(err)
		}
		return r.Expectation()
	}
	gG = make([]float64, len(gamma))
	gB = make([]float64, len(beta))
	for _, half := range []struct {
		ang  []float64
		grad []float64
	}{{gamma, gG}, {beta, gB}} {
		for l := range half.ang {
			orig := half.ang[l]
			half.ang[l] = orig + h
			ep := eval()
			half.ang[l] = orig - h
			em := eval()
			half.ang[l] = orig
			half.grad[l] = (ep - em) / (2 * h)
		}
	}
	return gG, gB
}

// maxAbs returns max_i |x_i| over both slices.
func maxAbs(xs ...[]float64) float64 {
	var m float64
	for _, x := range xs {
		for _, v := range x {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
	}
	return m
}

// assertGradClose checks each component of (gG, gB) against the
// reference within rtol of the gradient scale (floored at 1).
func assertGradClose(t *testing.T, label string, gG, gB, refG, refB []float64, rtol float64) {
	t.Helper()
	scale := math.Max(1, maxAbs(refG, refB))
	for l := range refG {
		if d := math.Abs(gG[l] - refG[l]); d > rtol*scale {
			t.Errorf("%s: ∂E/∂γ_%d = %v, want %v (|Δ|=%.3g > %.3g)", label, l, gG[l], refG[l], d, rtol*scale)
		}
		if d := math.Abs(gB[l] - refB[l]); d > rtol*scale {
			t.Errorf("%s: ∂E/∂β_%d = %v, want %v (|Δ|=%.3g > %.3g)", label, l, gB[l], refB[l], d, rtol*scale)
		}
	}
}

// testInstances are the random problem families of the differential
// suite: sparse MaxCut, dense high-order LABS, and all-to-all SK.
func testInstances(t *testing.T, n int) map[string]poly.Terms {
	t.Helper()
	g, err := graphs.RandomRegular(n, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]poly.Terms{
		"maxcut": problems.MaxCutTerms(g),
		"labs":   problems.LABSTerms(n),
		"sk":     skTerms(n, 42),
	}
}

// requireTableSide asserts which side of the phase-table rule s is on,
// so a test meant to cover one side cannot silently drift to the other.
func requireTableSide(t *testing.T, label string, s *Simulator, want bool) {
	t.Helper()
	if got := s.levels != nil; got != want {
		t.Fatalf("%s: takes phase tables = %v, want %v", label, got, want)
	}
}

// tableCase is a problem instance together with the side of the
// phase-table rule its diagonal falls on.
type tableCase struct {
	name  string
	n     int
	terms poly.Terms
	table bool
}

// tableCases covers both sides of the phase-table rule: at n = 8 the
// 3-regular MaxCut grid (13 levels ≤ 2^8/16) takes tables while LABS
// and SK do not; at n = 14 LABS (≈ 800 levels) takes them and SK
// still does not.
func tableCases(t *testing.T) []tableCase {
	t.Helper()
	var cs []tableCase
	for name, terms := range testInstances(t, 8) {
		cs = append(cs, tableCase{name, 8, terms, name == "maxcut"})
	}
	return append(cs,
		tableCase{"labs", 14, problems.LABSTerms(14), true},
		tableCase{"sk", 14, skTerms(14, 43), false})
}

// TestAdjointGradientMatchesFiniteDifference is the cross-backend
// differential suite: every float64 backend × both mixer families ×
// p ∈ {1, 4, 12} on random MaxCut/LABS/SK instances on both sides of
// the phase-table rule, adjoint vs central finite differences at rtol
// 1e-6 (the n = 14 instances run p ∈ {1, 4}).
func TestAdjointGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range tableCases(t) {
		n, name, terms := c.n, c.name, c.terms
		depths := []int{1, 4, 12}
		if testing.Short() || n > 8 {
			depths = []int{1, 4}
		}
		for _, backend := range []Backend{BackendSerial, BackendParallel, BackendSoA} {
			for _, mixer := range []Mixer{MixerX, MixerXYRing} {
				for _, p := range depths {
					s, err := New(n, terms, Options{Backend: backend, Mixer: mixer, Workers: 3})
					if err != nil {
						t.Fatal(err)
					}
					gamma, beta := randomAngles(rng, p)
					label := name + itoa(n) + "/" + backend.String() + "/" + mixer.String() + "/p=" + itoa(p)
					requireTableSide(t, label, s, c.table)
					e, gG, gB, err := s.SimulateQAOAGrad(gamma, beta)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					refG, refB := fdGrad(t, s, gamma, beta, 1e-6)
					assertGradClose(t, label, gG, gB, refG, refB, 1e-6)
					// The adjoint energy is the plain forward objective.
					r, err := s.SimulateQAOA(gamma, beta)
					if err != nil {
						t.Fatal(err)
					}
					if d := math.Abs(e - r.Expectation()); d > 1e-9 {
						t.Errorf("%s: adjoint energy differs from forward by %v", label, d)
					}
				}
			}
		}
	}
}

func itoa(p int) string {
	if p >= 10 {
		return string(rune('0'+p/10)) + string(rune('0'+p%10))
	}
	return string(rune('0' + p))
}

// TestAdjointGradientCrossBackend checks that every representation
// computes the same gradient on both sides of the phase-table rule:
// Parallel and SoA within 1e-12 of the Serial gradient's max-norm
// (they differ only in reduction order), SoA32 within its 2e-3 band,
// for the x and xy-ring mixers.
func TestAdjointGradientCrossBackend(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewSource(37))
	for _, c := range tableCases(t) {
		for _, mixer := range []Mixer{MixerX, MixerXYRing} {
			gamma, beta := randomAngles(rng, p)
			var refG, refB []float64
			for _, o := range []Options{
				{Backend: BackendSerial},
				{Backend: BackendParallel, Workers: 3},
				{Backend: BackendSoA, Workers: 3},
				{Backend: BackendSoA, Workers: 3, SinglePrecision: true},
			} {
				o.Mixer = mixer
				s, err := New(c.n, c.terms, o)
				if err != nil {
					t.Fatal(err)
				}
				label := c.name + itoa(c.n) + "/" + o.Backend.String() + "/" + mixer.String()
				if o.SinglePrecision {
					label += "/f32"
				}
				requireTableSide(t, label, s, c.table)
				_, gG, gB, err := s.SimulateQAOAGrad(gamma, beta)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				switch {
				case refG == nil:
					refG, refB = gG, gB
				case o.SinglePrecision:
					assertGradClose(t, label, gG, gB, refG, refB, 2e-3)
				default:
					norm := maxAbs(refG, refB)
					for l := range refG {
						if d := math.Max(math.Abs(gG[l]-refG[l]), math.Abs(gB[l]-refB[l])); d > 1e-12*norm {
							t.Errorf("%s layer %d: |Δ| = %.3g > 1e-12 × max-norm %.3g", label, l, d, norm)
						}
					}
				}
			}
		}
	}
}

// TestAdjointGradientXYComplete covers the densest mixer sweep (all
// qubit pairs per Trotter step).
func TestAdjointGradientXYComplete(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(9))
	for _, backend := range []Backend{BackendSerial, BackendSoA} {
		for _, p := range []int{1, 4} {
			s, err := New(n, problems.LABSTerms(n), Options{Backend: backend, Mixer: MixerXYComplete})
			if err != nil {
				t.Fatal(err)
			}
			gamma, beta := randomAngles(rng, p)
			_, gG, gB, err := s.SimulateQAOAGrad(gamma, beta)
			if err != nil {
				t.Fatal(err)
			}
			refG, refB := fdGrad(t, s, gamma, beta, 1e-6)
			assertGradClose(t, "xy-complete/"+backend.String(), gG, gB, refG, refB, 1e-6)
		}
	}
}

// TestAdjointGradientSinglePrecision pins the SoA32 error band. A
// float32 state makes finite differences useless (ε/h noise), so the
// single-precision adjoint gradient is compared against the float64
// SoA adjoint gradient on identical parameters. Observed deviations at
// n=8, p≤12 are ~1e-5–1e-4 of the gradient scale; the asserted band is
// 2e-3, the documented contract for quantitative SoA32 use.
func TestAdjointGradientSinglePrecision(t *testing.T) {
	const n = 8
	depths := []int{1, 4, 12}
	if testing.Short() {
		depths = []int{1, 4}
	}
	rng := rand.New(rand.NewSource(17))
	for name, terms := range testInstances(t, n) {
		for _, mixer := range []Mixer{MixerX, MixerXYRing} {
			for _, p := range depths {
				ref, err := New(n, terms, Options{Backend: BackendSoA, Mixer: mixer})
				if err != nil {
					t.Fatal(err)
				}
				s32, err := New(n, terms, Options{Backend: BackendSoA, Mixer: mixer, SinglePrecision: true})
				if err != nil {
					t.Fatal(err)
				}
				gamma, beta := randomAngles(rng, p)
				_, refG, refB, err := ref.SimulateQAOAGrad(gamma, beta)
				if err != nil {
					t.Fatal(err)
				}
				_, gG, gB, err := s32.SimulateQAOAGrad(gamma, beta)
				if err != nil {
					t.Fatal(err)
				}
				assertGradClose(t, name+"/soa32/"+mixer.String(), gG, gB, refG, refB, 2e-3)
			}
		}
	}
}

// TestGradBuffersReuse pins the buffer-reuse contract: repeated
// SimulateQAOAGradInto calls through one GradBuffers reproduce the
// fresh-buffer results bit-for-bit.
func TestGradBuffersReuse(t *testing.T) {
	const n, p = 8, 5
	rng := rand.New(rand.NewSource(31))
	for _, backend := range allBackends() {
		s, err := New(n, problems.LABSTerms(n), Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		w := s.NewGradBuffers()
		gG := make([]float64, p)
		gB := make([]float64, p)
		for rep := 0; rep < 3; rep++ {
			gamma, beta := randomAngles(rng, p)
			e, err := s.SimulateQAOAGradInto(w, gamma, beta, gG, gB)
			if err != nil {
				t.Fatal(err)
			}
			eFresh, fG, fB, err := s.SimulateQAOAGrad(gamma, beta)
			if err != nil {
				t.Fatal(err)
			}
			if e != eFresh {
				t.Errorf("%v rep %d: reused energy %v != fresh %v", backend, rep, e, eFresh)
			}
			for l := 0; l < p; l++ {
				if gG[l] != fG[l] || gB[l] != fB[l] {
					t.Errorf("%v rep %d layer %d: reused grad (%v,%v) != fresh (%v,%v)",
						backend, rep, l, gG[l], gB[l], fG[l], fB[l])
				}
			}
		}
	}
}

func TestSimulateQAOAGradValidation(t *testing.T) {
	s, err := New(4, problems.LABSTerms(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.SimulateQAOAGrad([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched schedule lengths accepted")
	}
	w := s.NewGradBuffers()
	if _, err := s.SimulateQAOAGradInto(w, []float64{1}, []float64{1}, nil, make([]float64, 1)); err == nil {
		t.Error("short gradGamma accepted")
	}
	if _, err := s.SimulateQAOAGradInto(w, []float64{1}, []float64{1}, make([]float64, 1), nil); err == nil {
		t.Error("short gradBeta accepted")
	}
	if _, err := s.SimulateQAOAGradInto(nil, nil, nil, nil, nil); err == nil {
		t.Error("nil GradBuffers accepted")
	}
	other, err := New(5, problems.LABSTerms(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.SimulateQAOAGradInto(w, []float64{1}, []float64{1}, make([]float64, 1), make([]float64, 1)); err == nil {
		t.Error("GradBuffers from a smaller simulator accepted")
	}
	// p = 0 degenerates to the initial-state energy with no gradient.
	e, gG, gB, err := s.SimulateQAOAGrad(nil, nil)
	if err != nil || len(gG) != 0 || len(gB) != 0 {
		t.Fatalf("p=0 gradient failed: %v", err)
	}
	r, _ := s.SimulateQAOA(nil, nil)
	if math.Abs(e-r.Expectation()) > 1e-12 {
		t.Errorf("p=0 energy %v != initial-state energy %v", e, r.Expectation())
	}
}

// TestSerialWorkersNormalized pins the Options-validation fix: the
// serial backend normalizes any requested worker count to 1 instead of
// silently retaining a pool it never uses.
func TestSerialWorkersNormalized(t *testing.T) {
	s, err := New(4, problems.LABSTerms(4), Options{Backend: BackendSerial, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Workers(); got != 1 {
		t.Errorf("serial simulator Workers() = %d, want 1", got)
	}
	p, err := New(4, problems.LABSTerms(4), Options{Backend: BackendParallel, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Workers(); got != 3 {
		t.Errorf("parallel simulator Workers() = %d, want 3", got)
	}
	a, err := New(4, problems.LABSTerms(4), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Workers(); got != 2 {
		t.Errorf("auto(SoA) simulator Workers() = %d, want 2", got)
	}
}

// TestAdjointGradObsMatchesFiniteDifference verifies the
// observable-seeded adjoint (the light-cone backend's per-edge
// gradient kernel): differentiate ⟨obs⟩ for an arbitrary real diagonal
// observable while evolving under the instance's cost diagonal, and
// compare against central finite differences of the same quantity.
func TestAdjointGradObsMatchesFiniteDifference(t *testing.T) {
	const n = 8
	rng := rand.New(rand.NewSource(13))
	g, err := graphs.RandomRegular(n, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	// A Z_0Z_3 parity observable plus random diagonal noise — distinct
	// from the evolution cost, which is the whole point of the variant.
	obs := make([]float64, 1<<n)
	for x := range obs {
		zz := 1.0
		if (x>>0)&1 != (x>>3)&1 {
			zz = -1.0
		}
		obs[x] = zz + 0.25*rng.Float64()
	}
	// MaxCut evolves through phase tables, SK through per-amplitude
	// sincos: both sides of the table rule.
	for _, c := range []tableCase{
		{"maxcut", n, problems.MaxCutTerms(g), true},
		{"sk", n, skTerms(n, 42), false},
	} {
		for _, backend := range []Backend{BackendSerial, BackendParallel, BackendSoA} {
			for _, mixer := range []Mixer{MixerX, MixerXYRing} {
				for _, p := range []int{1, 3} {
					s, err := New(n, c.terms, Options{Backend: backend, Mixer: mixer, Workers: 3})
					if err != nil {
						t.Fatal(err)
					}
					gamma, beta := randomAngles(rng, p)
					label := c.name + "/" + backend.String() + "/" + mixer.String() + "/p=" + itoa(p)
					requireTableSide(t, label, s, c.table)
					checkGradObs(t, label, s, gamma, beta, obs)
				}
			}
		}
	}
}

// checkGradObs compares the observable-seeded adjoint of one simulator
// against central finite differences of ⟨obs⟩.
func checkGradObs(t *testing.T, label string, s *Simulator, gamma, beta, obs []float64) {
	t.Helper()
	p := len(gamma)
	w := s.NewGradBuffers()
	gG := make([]float64, p)
	gB := make([]float64, p)
	e, err := s.SimulateQAOAGradObsInto(w, gamma, beta, obs, gG, gB)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}

	// Finite-difference reference of ⟨obs⟩.
	r := s.NewResult()
	eval := func() float64 {
		if err := s.SimulateQAOAInto(r, gamma, beta); err != nil {
			t.Fatal(err)
		}
		v, err := r.ExpectationOf(obs)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := eval(); math.Abs(got-e) > 1e-12*math.Max(1, math.Abs(got)) {
		t.Errorf("%s: energy %v, want %v", label, e, got)
	}
	const h = 1e-5
	refG := make([]float64, p)
	refB := make([]float64, p)
	for _, half := range []struct{ ang, grad []float64 }{{gamma, refG}, {beta, refB}} {
		for l := range half.ang {
			orig := half.ang[l]
			half.ang[l] = orig + h
			ep := eval()
			half.ang[l] = orig - h
			em := eval()
			half.ang[l] = orig
			half.grad[l] = (ep - em) / (2 * h)
		}
	}
	assertGradClose(t, label, gG, gB, refG, refB, 1e-6)
}

// TestAdjointGradObsEqualsStandardOnCost pins the degenerate case: with
// obs set to the evolution diagonal itself, the observable-seeded
// adjoint must reproduce SimulateQAOAGradInto to machine precision.
func TestAdjointGradObsEqualsStandardOnCost(t *testing.T) {
	const n = 7
	rng := rand.New(rand.NewSource(29))
	terms := problems.LABSTerms(n)
	s, err := New(n, terms, Options{Backend: BackendSoA})
	if err != nil {
		t.Fatal(err)
	}
	diag := make([]float64, 1<<n)
	for x := range diag {
		diag[x] = terms.Eval(uint64(x))
	}
	gamma, beta := randomAngles(rng, 4)
	w := s.NewGradBuffers()
	gG := make([]float64, 4)
	gB := make([]float64, 4)
	e, err := s.SimulateQAOAGradObsInto(w, gamma, beta, diag, gG, gB)
	if err != nil {
		t.Fatal(err)
	}
	refE, refG, refB, err := s.SimulateQAOAGrad(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-refE) > 1e-12*math.Max(1, math.Abs(refE)) {
		t.Errorf("energy %v, want %v", e, refE)
	}
	assertGradClose(t, "obs==cost", gG, gB, refG, refB, 1e-13)
}

// TestAdjointGradObsValidation: the observable length must match the
// state dimension, and the error names both.
func TestAdjointGradObsValidation(t *testing.T) {
	s, err := New(5, problems.LABSTerms(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := s.NewGradBuffers()
	g1 := []float64{0.3}
	if _, err := s.SimulateQAOAGradObsInto(w, g1, g1, make([]float64, 16), []float64{0}, []float64{0}); err == nil {
		t.Error("short observable accepted")
	}
}
