package qokit

import (
	"context"
	"math"
	"testing"
)

// TestSimulateQAOAGradFacade checks the gradient entry point through
// the public Simulator type and a Workspace over it.
func TestSimulateQAOAGradFacade(t *testing.T) {
	const n, p = 8, 4
	sim, err := NewSimulator(n, LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gamma, beta := TQAInit(p, 0.75)
	e, gG, gB, err := sim.SimulateQAOAGrad(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	if len(gG) != p || len(gB) != p {
		t.Fatalf("gradient lengths (%d, %d), want %d", len(gG), len(gB), p)
	}
	ws := sim.NewWorkspace()
	g2 := make([]float64, 2*p)
	e2, err := ws.EnergyGrad(context.Background(), append(gamma, beta...), g2)
	if err != nil {
		t.Fatal(err)
	}
	if e != e2 {
		t.Errorf("workspace energy %v != simulator energy %v", e2, e)
	}
	for l := 0; l < p; l++ {
		if gG[l] != g2[l] || gB[l] != g2[p+l] {
			t.Errorf("layer %d: workspace grad differs", l)
		}
	}
}

// TestOptimizeParametersAdam checks the gradient-based optimizer
// façade improves on the warm start and respects its budget.
func TestOptimizeParametersAdam(t *testing.T) {
	const n, p = 8, 4
	sim, err := NewSimulator(n, LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	g0, b0 := TQAInit(p, 0.75)
	r0, err := sim.SimulateQAOA(g0, b0)
	if err != nil {
		t.Fatal(err)
	}
	start := r0.Expectation()

	gamma, beta, energy, evals, err := OptimizeParametersAdam(sim, p, AdamOptions{MaxIter: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(gamma) != p || len(beta) != p {
		t.Fatalf("angle lengths (%d, %d), want %d", len(gamma), len(beta), p)
	}
	if evals > 60 {
		t.Errorf("evals = %d, budget was 60", evals)
	}
	if energy >= start {
		t.Errorf("Adam energy %v did not improve on warm start %v", energy, start)
	}
	r, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(r.Expectation() - energy); d > 1e-9 {
		t.Errorf("returned angles re-evaluate to %v, reported %v", r.Expectation(), energy)
	}
	if _, _, _, _, err := OptimizeParametersAdam(sim, 0, AdamOptions{}); err == nil {
		t.Error("p=0 accepted")
	}
}

// TestOptimizeParametersAdamInterp checks the depth-progressive
// warm-start schedule.
func TestOptimizeParametersAdamInterp(t *testing.T) {
	const n, pmax = 8, 3
	sim, err := NewSimulator(n, LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gamma, beta, energy, totalEvals, err := OptimizeParametersAdamInterp(sim, pmax, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(gamma) != pmax || len(beta) != pmax {
		t.Fatalf("angle lengths (%d, %d), want %d", len(gamma), len(beta), pmax)
	}
	if totalEvals == 0 || totalEvals > pmax*25 {
		t.Errorf("totalEvals = %d, want in (0, %d]", totalEvals, pmax*25)
	}
	r, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(r.Expectation() - energy); d > 1e-9 {
		t.Errorf("returned angles re-evaluate to %v, reported %v", r.Expectation(), energy)
	}
	if _, _, _, _, err := OptimizeParametersAdamInterp(sim, 0, 10); err == nil {
		t.Error("pmax=0 accepted")
	}
}

// TestOptimizeParametersAdamFourier checks the FOURIER schedule:
// 2q-dimensional optimization synthesizing a depth-pmax schedule,
// warm-started depth by depth.
func TestOptimizeParametersAdamFourier(t *testing.T) {
	const n, pmax, q = 8, 6, 3
	sim, err := NewSimulator(n, LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gamma, beta, energy, totalEvals, err := OptimizeParametersAdamFourier(sim, pmax, q, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(gamma) != pmax || len(beta) != pmax {
		t.Fatalf("angle lengths (%d, %d), want %d", len(gamma), len(beta), pmax)
	}
	if totalEvals == 0 || totalEvals > pmax*25 {
		t.Errorf("totalEvals = %d, want in (0, %d]", totalEvals, pmax*25)
	}
	r, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(r.Expectation() - energy); d > 1e-9 {
		t.Errorf("returned angles re-evaluate to %v, reported %v", r.Expectation(), energy)
	}
	// The optimized schedule must beat the unoptimized TQA start at
	// the same depth.
	g0, b0 := TQAInit(pmax, 0.75)
	r0, err := sim.SimulateQAOA(g0, b0)
	if err != nil {
		t.Fatal(err)
	}
	if energy >= r0.Expectation() {
		t.Errorf("Fourier energy %v did not improve on TQA start %v", energy, r0.Expectation())
	}
	if _, _, _, _, err := OptimizeParametersAdamFourier(sim, 4, 0, 10); err == nil {
		t.Error("q=0 accepted")
	}
	if _, _, _, _, err := OptimizeParametersAdamFourier(sim, 4, 5, 10); err == nil {
		t.Error("q > pmax accepted")
	}
}

// TestSweepGradFacade checks the batched gradient path: a service over
// two workspaces returns, for a mixed-depth batch, the gradients
// SimulateQAOAGrad computes point by point, bit for bit.
func TestSweepGradFacade(t *testing.T) {
	const n = 8
	sim, err := NewSimulator(n, LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService([]Evaluator{sim.NewWorkspace(), sim.NewWorkspace()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	g1, b1 := TQAInit(2, 0.5)
	g2, b2 := TQAInit(3, 1.0)
	xs := [][]float64{append(g1, b1...), append(g2, b2...)}
	grads := [][]float64{make([]float64, 4), make([]float64, 6)}
	energies, err := svc.EnergyGradBatch(context.Background(), xs, nil, grads)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		p := len(x) / 2
		e, gG, gB, err := sim.SimulateQAOAGrad(x[:p], x[p:])
		if err != nil {
			t.Fatal(err)
		}
		if energies[i] != e {
			t.Errorf("point %d energy %v != %v", i, energies[i], e)
		}
		for l := range gG {
			if grads[i][l] != gG[l] || grads[i][p+l] != gB[l] {
				t.Errorf("point %d layer %d gradient mismatch", i, l)
			}
		}
	}
}
