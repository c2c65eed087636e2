package qokit

import (
	"math"
	"testing"
)

// TestListing1Flow reproduces the paper's Listing 1: weighted
// all-to-all MaxCut, precomputed diagonal, expectation.
func TestListing1Flow(t *testing.T) {
	simclass, err := ChooseSimulator("auto")
	if err != nil {
		t.Fatal(err)
	}
	n := 10
	terms := AllToAllMaxCutTerms(n, 0.3)
	sim, err := simclass(n, terms)
	if err != nil {
		t.Fatal(err)
	}
	costs := sim.CostDiagonal()
	if len(costs) != 1<<uint(n) {
		t.Fatalf("cost diagonal length %d", len(costs))
	}
	gamma, beta := TQAInit(3, 0.75)
	res, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Expectation()
	// The uniform-superposition expectation of Σ 0.3·s_i s_j is 0;
	// QAOA should find parameters below that, and any state's
	// expectation is bounded by the spectrum.
	lo, hi := costs[0], costs[0]
	for _, c := range costs {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if e < lo-1e-9 || e > hi+1e-9 {
		t.Fatalf("expectation %v outside spectrum [%v, %v]", e, lo, hi)
	}
}

// TestListing2Flow reproduces Listing 2: LABS with the xy-complete
// mixer.
func TestListing2Flow(t *testing.T) {
	simclass, err := ChooseSimulatorXYComplete("serial")
	if err != nil {
		t.Fatal(err)
	}
	n := 8
	sim, err := simclass(n, LABSTerms(n))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.SimulateQAOA([]float64{0.2}, []float64{0.4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Norm()-1) > 1e-10 {
		t.Fatalf("norm %v", res.Norm())
	}
}

// TestListing3Flow reproduces Listing 3: LABS on the distributed
// simulator with preserve_state-style outputs.
func TestListing3Flow(t *testing.T) {
	n := 8
	terms := LABSTerms(n)
	gamma, beta := TQAInit(2, 0.7)
	dist, err := SimulateQAOADistributed(n, terms, gamma, beta, DistOptions{Ranks: 4, Algo: Transpose})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(n, terms, Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist.Expectation-res.Expectation()) > 1e-9 {
		t.Fatalf("distributed expectation %v, single-node %v", dist.Expectation, res.Expectation())
	}
}

func TestChooseSimulatorRejectsUnknown(t *testing.T) {
	if _, err := ChooseSimulator("tpu"); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := ChooseSimulatorXYRing("tpu"); err == nil {
		t.Error("unknown backend accepted (xyring)")
	}
}

func TestPrecomputeDiagonalAndGroundStates(t *testing.T) {
	n := 8
	diag, err := PrecomputeDiagonal(n, LABSTerms(n))
	if err != nil {
		t.Fatal(err)
	}
	gs := GroundStates(diag, 1e-9)
	wantStates, wantE, err := LABSGroundStates(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != len(wantStates) {
		t.Fatalf("found %d ground states, want %d", len(gs), len(wantStates))
	}
	for _, s := range gs {
		if LABSEnergy(s, n) != wantE {
			t.Fatalf("state %b is not optimal", s)
		}
	}
	if _, err := PrecomputeDiagonal(2, NewTerms(NewTerm(1, 5))); err == nil {
		t.Error("invalid terms accepted")
	}
}

func TestOptimizeParametersImprovesOverTQA(t *testing.T) {
	n, p := 8, 2
	g, err := RandomRegular(n, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(n, MaxCutTerms(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	g0, b0 := TQAInit(p, 0.75)
	r0, err := sim.SimulateQAOA(g0, b0)
	if err != nil {
		t.Fatal(err)
	}
	start := r0.Expectation()
	gamma, beta, energy, evals, err := OptimizeParameters(sim, p, NMOptions{MaxEvals: 150})
	if err != nil {
		t.Fatal(err)
	}
	if energy > start+1e-12 {
		t.Errorf("optimizer worsened: %v -> %v", start, energy)
	}
	if evals < 5 || evals > 200 {
		t.Errorf("evals = %d", evals)
	}
	r, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Expectation()-energy) > 1e-9 {
		t.Errorf("reported energy %v does not reproduce: %v", energy, r.Expectation())
	}
	if _, _, _, _, err := OptimizeParameters(sim, 0, NMOptions{}); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestBaselinesAgreeWithFastSimulator(t *testing.T) {
	n := 6
	terms := LABSTerms(n)
	gamma, beta := TQAInit(2, 0.8)
	circ, err := BuildQAOACircuit(n, terms, gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	gateState, err := NewGateEngine().Simulate(circ)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(n, terms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	fast := res.StateVector()
	// Compare probabilities (global phase differs by the constant
	// term).
	gp := gateState.Probabilities(nil)
	fp := fast.Probabilities(nil)
	for i := range gp {
		if math.Abs(gp[i]-fp[i]) > 1e-9 {
			t.Fatalf("probability mismatch at %d: %v vs %v", i, gp[i], fp[i])
		}
	}
	// Tensor-network amplitude for one bitstring.
	amp, err := TNAmplitude(circ, 5, TNGreedySize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(amp)*real(amp)+imag(amp)*imag(amp)-fp[5]) > 1e-9 {
		t.Fatalf("TN |amplitude|² %v, fast %v", real(amp)*real(amp)+imag(amp)*imag(amp), fp[5])
	}
	// Gate-count stats are consistent.
	st := LayerStats(n, terms)
	if st.Terms == 0 || st.RawGates <= st.MixerGates {
		t.Errorf("implausible layer stats %+v", st)
	}
}

func TestSKAndObjectivesFacade(t *testing.T) {
	n := 8
	terms := SKTerms(n, 5)
	sim, err := NewSimulator(n, terms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gamma, beta := TQAInit(2, 0.6)
	res, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Variance(); v < 0 {
		t.Errorf("variance %v", v)
	}
	cvar, err := res.CVaR(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if cvar > res.Expectation()+1e-9 {
		t.Errorf("CVaR(0.1)=%v above expectation %v", cvar, res.Expectation())
	}
	if cvar < sim.MinCost()-1e-9 {
		t.Errorf("CVaR(0.1)=%v below ground energy %v", cvar, sim.MinCost())
	}
	// QASM round trip for a compiled circuit.
	circ, err := BuildQAOACircuit(n, terms, gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	src, err := CircuitQASM(circ)
	if err != nil {
		t.Fatal(err)
	}
	if len(src) == 0 || src[:13] != "OPENQASM 2.0;" {
		t.Errorf("QASM output malformed: %.40q", src)
	}
	// Single precision through the facade.
	sp, err := NewSimulator(n, terms, Options{SinglePrecision: true})
	if err != nil {
		t.Fatal(err)
	}
	rsp, err := sp.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rsp.Expectation()-res.Expectation()) > 1e-3 {
		t.Errorf("single-precision expectation gap %g", rsp.Expectation()-res.Expectation())
	}
}

func TestPortfolioEndToEnd(t *testing.T) {
	n, budget := 8, 4
	data := SyntheticPortfolio(n, budget, 0.5, 7)
	sim, err := NewSimulator(n, data.PortfolioTerms(), Options{
		Mixer:         MixerXYRing,
		HammingWeight: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	gamma, beta := TQAInit(3, 0.6)
	res, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	bestFeasible, _, err := data.PortfolioBrute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sim.MinCost()-bestFeasible) > 1e-9 {
		t.Errorf("feasible min %v, brute force %v", sim.MinCost(), bestFeasible)
	}
	if e := res.Expectation(); e < bestFeasible-1e-9 {
		t.Errorf("expectation %v below feasible optimum %v", e, bestFeasible)
	}
}

// TestSweepArgMinEmpty pins the façade's empty-batch contract: −1 and
// no panic, for both nil and zero-length result slices.
func TestSweepArgMinEmpty(t *testing.T) {
	if got := SweepArgMin(nil); got != -1 {
		t.Errorf("SweepArgMin(nil) = %d, want -1", got)
	}
	if got := SweepArgMin([]SweepResult{}); got != -1 {
		t.Errorf("SweepArgMin(empty) = %d, want -1", got)
	}
	if got := SweepArgMin([]SweepResult{{Energy: 3}, {Energy: -2}, {Energy: 1}}); got != 1 {
		t.Errorf("SweepArgMin = %d, want 1", got)
	}
}
