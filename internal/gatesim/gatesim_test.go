package gatesim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"qokit/internal/core"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

func TestHadamardsPrepareUniform(t *testing.T) {
	c := NewCircuit(4)
	for q := 0; q < 4; q++ {
		c.H(q)
	}
	v, err := NewEngine().Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := statevec.MaxAbsDiff(v, statevec.NewUniform(4)); d > 1e-12 {
		t.Fatalf("H^n|0⟩ ≠ |+⟩^n: %g", d)
	}
}

func TestCXTruthTable(t *testing.T) {
	e := NewEngine()
	for _, tc := range []struct{ in, want uint64 }{
		{0b00, 0b00}, {0b01, 0b11}, {0b11, 0b01}, {0b10, 0b10},
	} {
		c := NewCircuit(2).CX(0, 1) // control q0, target q1
		v := statevec.NewBasis(2, tc.in)
		if err := e.Run(c, v); err != nil {
			t.Fatal(err)
		}
		if cmplx.Abs(v[tc.want]-1) > 1e-12 {
			t.Errorf("CX|%02b⟩: state %v, want |%02b⟩", tc.in, v, tc.want)
		}
	}
}

func TestRZPhases(t *testing.T) {
	theta := 0.77
	c := NewCircuit(1).RZ(0, theta)
	v := statevec.Vec{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)}
	if err := NewEngine().Run(c, v); err != nil {
		t.Fatal(err)
	}
	want0 := cmplx.Exp(complex(0, -theta/2)) / complex(math.Sqrt2, 0)
	want1 := cmplx.Exp(complex(0, theta/2)) / complex(math.Sqrt2, 0)
	if cmplx.Abs(v[0]-want0)+cmplx.Abs(v[1]-want1) > 1e-12 {
		t.Errorf("RZ state %v, want (%v, %v)", v, want0, want1)
	}
}

func TestPhaseOperatorEqualsDiagonalMultiply(t *testing.T) {
	// The compiled CX-ladder phase operator must act exactly like
	// elementwise multiplication by e^{−iγf(x)} (up to the global
	// phase from constant terms, which we strip by removing them).
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(4)
		var ts poly.Terms
		for k := 0; k < 2+rng.Intn(6); k++ {
			deg := 1 + rng.Intn(minInt(4, n))
			seen := map[int]bool{}
			var vars []int
			for len(vars) < deg {
				v := rng.Intn(n)
				if !seen[v] {
					seen[v] = true
					vars = append(vars, v)
				}
			}
			ts = append(ts, poly.Term{Weight: math.Round(rng.NormFloat64()*4) / 4, Vars: vars})
		}
		gamma := rng.Float64()*2 - 1

		v := statevec.NewUniform(n)
		for i := range v {
			v[i] *= complex(rng.NormFloat64(), rng.NormFloat64())
		}
		v.Normalize()

		viaGates := v.Clone()
		c := NewCircuit(n).AppendPhaseOperator(ts, gamma)
		if err := NewEngine().Run(c, viaGates); err != nil {
			t.Fatal(err)
		}

		viaDiag := v.Clone()
		diag := make([]float64, len(v))
		for x := range diag {
			diag[x] = ts.Eval(uint64(x))
		}
		statevec.PhaseDiag(viaDiag, diag, gamma)
		if d := statevec.MaxAbsDiff(viaGates, viaDiag); d > 1e-10 {
			t.Fatalf("trial %d: compiled phase op differs from diagonal: %g (terms %v)", trial, d, ts)
		}
	}
}

func TestQAOACircuitMatchesFastSimulator(t *testing.T) {
	// End-to-end: the gate-based QAOA circuit must produce the same
	// state as the fast simulator (they are different algorithms for
	// the same unitary).
	rng := rand.New(rand.NewSource(42))
	g, err := graphs.RandomRegular(8, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, terms := range []poly.Terms{problems.MaxCutTerms(g), problems.LABSTerms(8)} {
		p := 3
		gamma := make([]float64, p)
		beta := make([]float64, p)
		for i := range gamma {
			gamma[i] = rng.Float64() - 0.5
			beta[i] = rng.Float64() - 0.5
		}
		circ, err := BuildQAOA(8, terms, gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		gateState, err := NewEngine().Simulate(circ)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := core.New(8, terms, core.Options{Backend: core.BackendSerial})
		if err != nil {
			t.Fatal(err)
		}
		r, err := fast.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		fastState := r.StateVector()
		// Constant terms produce a global phase in the fast simulator
		// that the gate circuit drops; compare up to global phase.
		if d := maxDiffUpToPhase(gateState, fastState); d > 1e-9 {
			t.Fatalf("gate-based vs fast simulator: %g", d)
		}
	}
}

func TestPooledEngineMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ts := problems.LABSTerms(7)
	gamma := []float64{rng.Float64(), rng.Float64()}
	beta := []float64{rng.Float64(), rng.Float64()}
	circ, err := BuildQAOA(7, ts, gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewEngine().Simulate(circ)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPooledEngine(3).Simulate(circ)
	if err != nil {
		t.Fatal(err)
	}
	if d := statevec.MaxAbsDiff(a, b); d > 1e-11 {
		t.Fatalf("pooled engine differs: %g", d)
	}
}

func TestCancelAdjacentCXPreservesSemanticsAndShrinks(t *testing.T) {
	ts := problems.LABSTerms(8)
	circ := NewCircuit(8).AppendPhaseOperator(ts, 0.3)
	cancelled := circ.CancelAdjacentCX()
	if len(cancelled.Gates) >= len(circ.Gates) {
		t.Errorf("peephole did not shrink: %d -> %d", len(circ.Gates), len(cancelled.Gates))
	}
	a, err := NewEngine().Simulate(withUniformPrep(circ))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine().Simulate(withUniformPrep(cancelled))
	if err != nil {
		t.Fatal(err)
	}
	if d := statevec.MaxAbsDiff(a, b); d > 1e-10 {
		t.Fatalf("peephole changed semantics: %g", d)
	}
}

func TestFuseSingleQubitPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	circ := NewCircuit(5)
	for i := 0; i < 60; i++ {
		switch rng.Intn(4) {
		case 0:
			circ.H(rng.Intn(5))
		case 1:
			circ.RX(rng.Intn(5), rng.Float64())
		case 2:
			circ.RZ(rng.Intn(5), rng.Float64())
		case 3:
			a := rng.Intn(5)
			b := (a + 1 + rng.Intn(4)) % 5
			circ.CX(a, b)
		}
	}
	fused := circ.FuseSingleQubit()
	if len(fused.Gates) >= len(circ.Gates) {
		t.Errorf("fusion did not shrink: %d -> %d", len(circ.Gates), len(fused.Gates))
	}
	a, err := NewEngine().Simulate(circ)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine().Simulate(fused)
	if err != nil {
		t.Fatal(err)
	}
	if d := statevec.MaxAbsDiff(a, b); d > 1e-10 {
		t.Fatalf("fusion changed semantics: %g", d)
	}
}

func TestXYPairGateMatchesStatevecKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	v := statevec.NewUniform(4)
	for i := range v {
		v[i] *= complex(rng.NormFloat64(), rng.NormFloat64())
	}
	v.Normalize()
	viaGate := v.Clone()
	c := NewCircuit(4).XY(1, 3, 0.6)
	if err := NewEngine().Run(c, viaGate); err != nil {
		t.Fatal(err)
	}
	viaKernel := v.Clone()
	statevec.ApplyXY(viaKernel, 1, 3, 0.6)
	if d := statevec.MaxAbsDiff(viaGate, viaKernel); d > 1e-12 {
		t.Fatalf("XY gate vs kernel: %g", d)
	}
}

func TestXXGate(t *testing.T) {
	// exp(−iπ/2·XX/... ): at θ=π, exp(−iπXX/2) = −i·X⊗X.
	v := statevec.NewBasis(2, 0)
	c := NewCircuit(2)
	c.Gates = append(c.Gates, Gate{Kind: KindXX, Q1: 0, Q2: 1, Theta: math.Pi})
	if err := NewEngine().Run(c, v); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(v[3]-complex(0, -1)) > 1e-12 {
		t.Fatalf("XX(π)|00⟩ = %v, want −i|11⟩", v)
	}
}

func TestLayerStatsLABSScale(t *testing.T) {
	// §VI: LABS n=31 has ≈75n terms and ≈160n compiled gates (after
	// CX cancellation); unoptimized substantially more. Check the
	// orders of magnitude.
	st := LayerStats(31, problems.LABSTerms(31))
	if perN := float64(st.Terms) / 31; perN < 50 || perN > 100 {
		t.Errorf("terms per qubit = %.1f, want ≈75", perN)
	}
	if st.RawGates <= st.AfterCX {
		t.Errorf("CX cancellation ineffective: raw %d, after %d", st.RawGates, st.AfterCX)
	}
	if st.AfterFuse > st.AfterCX {
		t.Errorf("fusion increased gates: %d -> %d", st.AfterCX, st.AfterFuse)
	}
	// The paper cites ≈160n after Qiskit's full transpiler; our
	// single peephole pass lands in the same order of magnitude
	// (several hundred per qubit). The claim that matters — the phase
	// operator costs hundreds of strided passes per layer versus the
	// fast simulator's single multiply — holds at any point in that
	// range.
	if perN := float64(st.AfterCX) / 31; perN < 50 || perN > 700 {
		t.Errorf("gates per qubit after peephole = %.1f; expected O(100s)", perN)
	}
	if st.MixerGates != 31 {
		t.Errorf("mixer gates = %d", st.MixerGates)
	}
}

func TestValidation(t *testing.T) {
	c := NewCircuit(2).CX(0, 0)
	if err := c.Validate(); err == nil {
		t.Error("CX with identical qubits accepted")
	}
	c2 := NewCircuit(2).H(5)
	if err := c2.Validate(); err == nil {
		t.Error("out-of-range qubit accepted")
	}
	if err := NewEngine().Run(NewCircuit(2), statevec.New(3)); err == nil {
		t.Error("wrong state size accepted")
	}
	if _, err := BuildQAOA(2, nil, []float64{1}, nil); err == nil {
		t.Error("mismatched angle lengths accepted")
	}
}

func withUniformPrep(c *Circuit) *Circuit {
	out := NewCircuit(c.N)
	for q := 0; q < c.N; q++ {
		out.H(q)
	}
	out.Gates = append(out.Gates, c.Gates...)
	return out
}

func maxDiffUpToPhase(a, b statevec.Vec) float64 {
	// Find the largest-magnitude amplitude of a to anchor the phase.
	best := 0
	for i := range a {
		if cmplx.Abs(a[i]) > cmplx.Abs(a[best]) {
			best = i
		}
	}
	if cmplx.Abs(a[best]) < 1e-14 {
		return statevec.MaxAbsDiff(a, b)
	}
	phase := b[best] / a[best]
	phase /= complex(cmplx.Abs(phase), 0)
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i]*phase - b[i]); d > m {
			m = d
		}
	}
	return m
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestXYEqualsRXXRYY verifies that the XY gate (statevec.ApplyXY) is
// the RXX·RYY pair gate frameworks compile it to:
// exp(−iβ(XX+YY)/2) = RXX(β)·RYY(β).
func TestXYEqualsRXXRYY(t *testing.T) {
	beta := 0.83
	viaXY := statevec.NewUniform(2)
	for i := range viaXY {
		viaXY[i] *= complex(float64(i)+0.5, -float64(i)) // arbitrary, then normalize
	}
	viaXY.Normalize()
	viaFactors := viaXY.Clone()

	statevec.ApplyXY(viaXY, 0, 1, beta)

	// RXX(β) then RYY(β) via explicit matrices.
	s, c := math.Sin(beta/2), math.Cos(beta/2)
	cc, ss := complex(c, 0), complex(0, -s)
	rxx := [4][4]complex128{
		{cc, 0, 0, ss},
		{0, cc, ss, 0},
		{0, ss, cc, 0},
		{ss, 0, 0, cc},
	}
	// RYY(θ) = exp(−iθ YY/2): YY flips both bits with signs
	// (+|00⟩↔−|11⟩ sector sign): YY|00⟩ = −|11⟩, YY|01⟩ = |10⟩.
	ryy := [4][4]complex128{
		{cc, 0, 0, -ss},
		{0, cc, ss, 0},
		{0, ss, cc, 0},
		{-ss, 0, 0, cc},
	}
	statevec.Apply2Q(viaFactors, 0, 1, rxx)
	statevec.Apply2Q(viaFactors, 0, 1, ryy)
	if d := statevec.MaxAbsDiff(viaXY, viaFactors); d > 1e-12 {
		t.Errorf("XY vs RXX·RYY: %g", d)
	}
}
