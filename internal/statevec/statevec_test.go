package statevec

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-12

func randomState(rng *rand.Rand, n int) Vec {
	v := New(n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	v.Normalize()
	return v
}

func TestConstructors(t *testing.T) {
	u := NewUniform(3)
	if len(u) != 8 {
		t.Fatalf("len = %d", len(u))
	}
	if math.Abs(u.Norm()-1) > tol {
		t.Errorf("uniform norm = %v", u.Norm())
	}
	for _, a := range u {
		if cmplx.Abs(a-complex(1/math.Sqrt(8), 0)) > tol {
			t.Errorf("uniform amplitude %v", a)
		}
	}
	b := NewBasis(3, 5)
	for i, a := range b {
		want := complex128(0)
		if i == 5 {
			want = 1
		}
		if a != want {
			t.Errorf("basis[%d] = %v", i, a)
		}
	}
	if NewZeroCheck := New(2); len(NewZeroCheck) != 4 || NewZeroCheck.Norm() != 0 {
		t.Error("New(2) not zero vector")
	}
}

func TestDicke(t *testing.T) {
	d := NewDicke(4, 2)
	if math.Abs(d.Norm()-1) > tol {
		t.Fatalf("Dicke norm = %v", d.Norm())
	}
	count := 0
	for x, a := range d {
		w := bits.OnesCount(uint(x))
		if w == 2 {
			count++
			if cmplx.Abs(a-complex(1/math.Sqrt(6), 0)) > tol {
				t.Errorf("Dicke amp at %04b = %v", x, a)
			}
		} else if a != 0 {
			t.Errorf("Dicke support leak at %04b", x)
		}
	}
	if count != 6 {
		t.Errorf("Dicke support size %d, want 6", count)
	}
	// Extremes: k=0 is |0..0⟩, k=n is |1..1⟩.
	if d0 := NewDicke(3, 0); d0[0] != 1 {
		t.Error("Dicke(3,0) != |000⟩")
	}
	if dn := NewDicke(3, 3); dn[7] != 1 {
		t.Error("Dicke(3,3) != |111⟩")
	}
}

func TestNumQubitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two length")
		}
	}()
	Vec(make([]complex128, 3)).NumQubits()
}

func TestDotAndExpectation(t *testing.T) {
	a := Vec{1, 0, 0, 0}
	b := Vec{0.5, 0.5, 0.5, 0.5}
	if got := Dot(a, b); cmplx.Abs(got-0.5) > tol {
		t.Errorf("Dot = %v, want 0.5", got)
	}
	// ⟨a|b⟩ = conj(⟨b|a⟩)
	rng := rand.New(rand.NewSource(2))
	x, y := randomState(rng, 4), randomState(rng, 4)
	if d1, d2 := Dot(x, y), Dot(y, x); cmplx.Abs(d1-conj(d2)) > tol {
		t.Errorf("Dot not conjugate-symmetric: %v vs %v", d1, d2)
	}
	diag := []float64{1, 2, 3, 4}
	if got := ExpectationDiag(b, diag); math.Abs(got-2.5) > tol {
		t.Errorf("ExpectationDiag = %v, want 2.5", got)
	}
}

func TestApplySU2AgainstDirectMatrix(t *testing.T) {
	// For random SU(2) blocks and qubits, compare Algorithm 1 against
	// naive per-amplitude matrix application.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5)
		q := rng.Intn(n)
		theta, phi := rng.Float64()*math.Pi, rng.Float64()*2*math.Pi
		a := complex(math.Cos(theta), 0)
		b := complex(math.Sin(theta)*math.Cos(phi), math.Sin(theta)*math.Sin(phi))
		v := randomState(rng, n)
		want := make(Vec, len(v))
		for x := range v {
			if x>>uint(q)&1 == 0 {
				x2 := x | 1<<uint(q)
				want[x] = a*v[x] - conj(b)*v[x2]
				want[x2] = b*v[x] + conj(a)*v[x2]
			}
		}
		got := v.Clone()
		ApplySU2(got, q, a, b)
		if d := MaxAbsDiff(got, want); d > tol {
			t.Fatalf("trial %d (n=%d q=%d): max diff %g", trial, n, q, d)
		}
	}
}

func TestApplyRXUnitaryAndPeriodic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v := randomState(rng, 5)
	w := v.Clone()
	ApplyRX(w, 2, 0.7)
	if math.Abs(w.Norm()-1) > tol {
		t.Errorf("RX broke norm: %v", w.Norm())
	}
	// RX(β) then RX(−β) = identity.
	ApplyRX(w, 2, -0.7)
	if d := MaxAbsDiff(w, v); d > tol {
		t.Errorf("RX inverse failed: %g", d)
	}
	// RX(2π) = identity (e^{-i2πX} has eigenvalues e^{∓2πi} = 1).
	w2 := v.Clone()
	ApplyRX(w2, 0, 2*math.Pi)
	if d := MaxAbsDiff(w2, v); d > 1e-10 {
		t.Errorf("RX(2π) ≠ I: %g", d)
	}
}

func TestRXEqualsHRZH(t *testing.T) {
	// e^{−iβX} = H e^{−iβZ} H: check Algorithm 1's RX against the
	// Hadamard-conjugated diagonal rotation.
	rng := rand.New(rand.NewSource(5))
	n, q, beta := 4, 1, 0.37
	v := randomState(rng, n)
	viaRX := v.Clone()
	ApplyRX(viaRX, q, beta)

	h := [2][2]complex128{
		{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)},
	}
	rz := [2][2]complex128{
		{cmplx.Exp(complex(0, -beta)), 0},
		{0, cmplx.Exp(complex(0, beta))},
	}
	viaH := v.Clone()
	Apply1Q(viaH, q, h)
	Apply1Q(viaH, q, rz)
	Apply1Q(viaH, q, h)
	if d := MaxAbsDiff(viaRX, viaH); d > tol {
		t.Errorf("RX vs H·RZ·H: %g", d)
	}
}

func TestUniformRXAtHalfPiIsBitflipTimesPhase(t *testing.T) {
	// e^{−i(π/2)X} = −iX, so the full mixer at β = π/2 maps amplitude
	// x to (−i)^n times the amplitude at the complement of x.
	n := 4
	rng := rand.New(rand.NewSource(6))
	v := randomState(rng, n)
	w := v.Clone()
	ApplyUniformRX(w, math.Pi/2)
	phase := cmplx.Pow(complex(0, -1), complex(float64(n), 0))
	full := len(v) - 1
	for x := range v {
		want := phase * v[x^full]
		if cmplx.Abs(w[x]-want) > 1e-10 {
			t.Fatalf("x=%04b: got %v, want %v", x, w[x], want)
		}
	}
}

func TestApplyXYPreservesHammingWeightSectors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 5
	v := randomState(rng, n)
	sector := func(u Vec) []float64 {
		w := make([]float64, n+1)
		for x, a := range u {
			w[bits.OnesCount(uint(x))] += real(a)*real(a) + imag(a)*imag(a)
		}
		return w
	}
	before := sector(v)
	ApplyXY(v, 1, 3, 0.9)
	ApplyXY(v, 4, 0, 1.3)
	after := sector(v)
	for k := range before {
		if math.Abs(before[k]-after[k]) > tol {
			t.Errorf("weight-%d sector changed: %v -> %v", k, before[k], after[k])
		}
	}
	if math.Abs(v.Norm()-1) > tol {
		t.Errorf("XY broke norm: %v", v.Norm())
	}
}

func TestApplyXYAgainstExplicitMatrix(t *testing.T) {
	// On 2 qubits, e^{−iβ(XX+YY)/2} in basis {00,01,10,11} is
	// identity except the middle 2×2 block [[c, −is], [−is, c]].
	beta := 0.61
	s, c := math.Sin(beta), math.Cos(beta)
	u := [4][4]complex128{
		{1, 0, 0, 0},
		{0, complex(c, 0), complex(0, -s), 0},
		{0, complex(0, -s), complex(c, 0), 0},
		{0, 0, 0, 1},
	}
	rng := rand.New(rand.NewSource(9))
	v := randomState(rng, 2)
	want := v.Clone()
	Apply2Q(want, 0, 1, u)
	got := v.Clone()
	ApplyXY(got, 0, 1, beta)
	if d := MaxAbsDiff(got, want); d > tol {
		t.Errorf("XY vs explicit 4×4: %g", d)
	}
	// And with swapped qubit order (operator is symmetric).
	got2 := v.Clone()
	ApplyXY(got2, 1, 0, beta)
	if d := MaxAbsDiff(got2, want); d > tol {
		t.Errorf("XY qubit order dependence: %g", d)
	}
}

func TestApply2QCNOT(t *testing.T) {
	// CNOT with control q0, target q1: |01⟩↔|11⟩ (q0 is low bit).
	cnot := [4][4]complex128{
		{1, 0, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
	}
	v := NewBasis(2, 0b01) // q0=1, q1=0
	Apply2Q(v, 0, 1, cnot)
	if cmplx.Abs(v[0b11]-1) > tol {
		t.Fatalf("CNOT|01⟩: %v", v)
	}
	v2 := NewBasis(2, 0b10) // q0=0 → no flip
	Apply2Q(v2, 0, 1, cnot)
	if cmplx.Abs(v2[0b10]-1) > tol {
		t.Fatalf("CNOT|10⟩: %v", v2)
	}
}

func TestApply2QOnNonAdjacentQubits(t *testing.T) {
	// SWAP on qubits (0, 2) of a 3-qubit basis state.
	swap := [4][4]complex128{
		{1, 0, 0, 0},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
	}
	v := NewBasis(3, 0b001) // q0=1
	Apply2Q(v, 0, 2, swap)
	if cmplx.Abs(v[0b100]-1) > tol {
		t.Fatalf("SWAP(0,2)|001⟩ = %v", v)
	}
}

func TestFWHTInvolutionAndParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	v := randomState(rng, 6)
	w := v.Clone()
	FWHT(w)
	if math.Abs(w.Norm()-1) > tol {
		t.Errorf("FWHT broke norm (Parseval): %v", w.Norm())
	}
	FWHT(w)
	if d := MaxAbsDiff(w, v); d > tol {
		t.Errorf("FWHT involution failed: %g", d)
	}
	// H^⊗n |0⟩ = uniform superposition.
	z := NewBasis(3, 0)
	FWHT(z)
	if d := MaxAbsDiff(z, NewUniform(3)); d > tol {
		t.Errorf("FWHT|0⟩ ≠ |+⟩^n: %g", d)
	}
}

func TestPhaseDiagPreservesProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v := randomState(rng, 5)
	diag := make([]float64, len(v))
	for i := range diag {
		diag[i] = rng.NormFloat64() * 3
	}
	before := v.Probabilities(nil)
	PhaseDiag(v, diag, 0.83)
	after := v.Probabilities(nil)
	for i := range before {
		if math.Abs(before[i]-after[i]) > tol {
			t.Fatalf("probability %d changed: %v -> %v", i, before[i], after[i])
		}
	}
}

func TestPhaseDiagExactOnBasis(t *testing.T) {
	v := NewBasis(2, 3)
	diag := []float64{0, 0, 0, 2}
	PhaseDiag(v, diag, math.Pi/4) // phase e^{−iπ/2} = −i
	if cmplx.Abs(v[3]-complex(0, -1)) > tol {
		t.Errorf("amplitude %v, want −i", v[3])
	}
}

func TestMixerViaFWHTEqualsAlgorithm2(t *testing.T) {
	// Ref. [43]'s method: e^{−iβΣX} = H^⊗n e^{−iβΣZ} H^⊗n, where the
	// diagonal of ΣZ_i at x is n − 2·popcount(x). The paper notes this
	// costs two transforms; Algorithm 2 does it in one pass. Both must
	// agree exactly.
	rng := rand.New(rand.NewSource(12))
	n, beta := 6, 0.47
	v := randomState(rng, n)
	direct := v.Clone()
	ApplyUniformRX(direct, beta)

	viaF := v.Clone()
	FWHT(viaF)
	diag := make([]float64, len(v))
	for x := range diag {
		diag[x] = float64(n - 2*bits.OnesCount(uint(x)))
	}
	PhaseDiag(viaF, diag, beta)
	FWHT(viaF)
	if d := MaxAbsDiff(direct, viaF); d > 1e-10 {
		t.Errorf("Algorithm 2 vs FWHT-diagonal-FWHT: %g", d)
	}
}

// TestPoolKernelsMatchSerial pins the pooled complex128 kernels the
// gate-based baseline runs (gatesim's pooled engine) against the serial
// ones at every worker count: the xy pair kernel here, the generic
// single-qubit gate in TestPoolGenericGatesMatchSerial.
func TestPoolKernelsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, workers := range []int{1, 2, 3, 4, 7} {
		p := NewPool(workers)
		p.minParallel = 1 // force parallel paths even on tiny states
		n := 6
		v := randomState(rng, n)
		serial := v.Clone()
		pooled := v.Clone()
		ApplyXY(serial, 1, 4, 1.1)
		p.ApplyXY(pooled, 1, 4, 1.1)
		if d := MaxAbsDiff(serial, pooled); d > tol {
			t.Fatalf("workers=%d XY mismatch: %g", workers, d)
		}
	}
}

func TestPoolGenericGatesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := NewPool(3)
	p.minParallel = 1
	n := 6
	v := randomState(rng, n)
	u1 := [2][2]complex128{
		{complex(0.6, 0.1), complex(-0.2, 0.3)},
		{complex(0.4, -0.5), complex(0.7, 0.2)},
	}
	serial := v.Clone()
	pooled := v.Clone()
	Apply1Q(serial, 2, u1)
	p.Apply1Q(pooled, 2, u1)
	if d := MaxAbsDiff(serial, pooled); d > tol {
		t.Fatalf("pool Apply1Q differs: %g", d)
	}
}

func TestSoAKernelsMatchAoS(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := NewPool(2)
	p.minParallel = 1
	n := 6
	v := randomState(rng, n)
	diag := make([]float64, len(v))
	for i := range diag {
		diag[i] = rng.NormFloat64() * 2
	}

	aos := v.Clone()
	soa := splitOf[float64](v)

	ApplyUniformRX(aos, 0.71)
	UniformRXPlanes(p, soa.Re, soa.Im, Phase{}, 0.71)
	if d := MaxAbsDiff(aos, toVec(soa.Re, soa.Im)); d > tol {
		t.Fatalf("SoA UniformRX mismatch: %g", d)
	}

	ApplyXY(aos, 0, 3, 0.42)
	ApplyXYPlanes(p, soa.Re, soa.Im, 0, 3, 0.42)
	if d := MaxAbsDiff(aos, toVec(soa.Re, soa.Im)); d > tol {
		t.Fatalf("SoA XY mismatch: %g", d)
	}

	PhaseDiag(aos, diag, 1.21)
	ApplyPhasePlanes(p, soa.Re, soa.Im, Phase{Diag: diag, Gamma: 1.21})
	if d := MaxAbsDiff(aos, toVec(soa.Re, soa.Im)); d > tol {
		t.Fatalf("SoA PhaseDiag mismatch: %g", d)
	}

	if a, b := ExpectationDiag(aos, diag), ExpectationPlanes(p, soa.Re, soa.Im, Phase{Diag: diag}); math.Abs(a-b) > 1e-10 {
		t.Fatalf("SoA expectation mismatch: %v vs %v", a, b)
	}
	if a, b := aos.Norm()*aos.Norm(), normSquared(p, soa.Re, soa.Im); math.Abs(a-b) > 1e-10 {
		t.Fatalf("SoA norm² mismatch: %v vs %v", a, b)
	}
	pa, pb := aos.Probabilities(nil), toVec(soa.Re, soa.Im).Probabilities(nil)
	for i := range pa {
		if math.Abs(pa[i]-pb[i]) > tol {
			t.Fatalf("SoA probabilities mismatch at %d", i)
		}
	}
}

// TestSoAPhaseTable checks the table-fed SoA phase against the
// per-amplitude sincos phase: the table holds the sincos values of the
// same arguments, so the states must agree bit for bit.
func TestSoAPhaseTable(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	p := NewPool(1)
	v := randomState(rng, 4)
	gamma := 0.55
	diag, codes, tab := randomLevels(rng, len(v), gamma)
	a := splitOf[float64](v)
	b := splitOf[float64](v)
	ApplyPhasePlanes(p, a.Re, a.Im, Phase{Diag: diag, Gamma: gamma})
	ApplyPhasePlanes(p, b.Re, b.Im, Phase{Diag: diag, Gamma: gamma, Codes: codes, Tab: tab})
	if d := MaxAbsDiff(toVec(a.Re, a.Im), toVec(b.Re, b.Im)); d != 0 {
		t.Errorf("table phase vs PhaseDiag: %g", d)
	}
}

func TestNewUniformSoA(t *testing.T) {
	a := soaVec(NewSoAUniform(5))
	b := NewUniform(5)
	if d := MaxAbsDiff(a, b); d > tol {
		t.Errorf("NewSoAUniform mismatch: %g", d)
	}
}

// Property (testing/quick): any mixer sweep preserves the norm.
func TestQuickMixerUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	v := randomState(rng, 6)
	f := func(rawBeta int8) bool {
		beta := float64(rawBeta) / 16
		w := v.Clone()
		ApplyUniformRX(w, beta)
		return math.Abs(w.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): mixer applications with different angles
// on the same qubit commute and compose additively.
func TestQuickRXAdditive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	v := randomState(rng, 4)
	f := func(a8, b8 int8) bool {
		a, b := float64(a8)/20, float64(b8)/20
		w1 := v.Clone()
		ApplyRX(w1, 2, a)
		ApplyRX(w1, 2, b)
		w2 := v.Clone()
		ApplyRX(w2, 2, a+b)
		return MaxAbsDiff(w1, w2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestValidationPanics(t *testing.T) {
	v := New(3)
	for name, fn := range map[string]func(){
		"SU2 bad qubit":       func() { ApplySU2(v, 3, 1, 0) },
		"SU2 negative qubit":  func() { ApplySU2(v, -1, 1, 0) },
		"XY same qubit":       func() { ApplyXY(v, 1, 1, 0.2) },
		"XY out of range":     func() { ApplyXY(v, 0, 9, 0.2) },
		"2Q same qubit":       func() { Apply2Q(v, 2, 2, [4][4]complex128{}) },
		"PhaseDiag mismatch":  func() { PhaseDiag(v, []float64{1}, 0.1) },
		"Dot mismatch":        func() { Dot(v, New(2)) },
		"Expectation bad len": func() { ExpectationDiag(v, []float64{1, 2}) },
		"Dicke bad k":         func() { NewDicke(3, 4) },
		"basis out of range":  func() { NewBasis(2, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
