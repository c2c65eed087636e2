package qokit

import (
	"math"
	"testing"
)

func TestOptimizeParametersInterpLadder(t *testing.T) {
	n := 8
	g, err := RandomRegular(n, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(n, MaxCutTerms(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gamma, beta, energy, evals, err := OptimizeParametersInterp(sim, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(gamma) != 3 || len(beta) != 3 {
		t.Fatalf("final depth %d/%d", len(gamma), len(beta))
	}
	if evals < 10 {
		t.Errorf("evals = %d", evals)
	}
	// The ladder must beat the raw p=1 TQA starting point.
	g1, b1 := TQAInit(1, 0.75)
	r1, err := sim.SimulateQAOA(g1, b1)
	if err != nil {
		t.Fatal(err)
	}
	if energy > r1.Expectation()+1e-9 {
		t.Errorf("INTERP ladder energy %v worse than p=1 start %v", energy, r1.Expectation())
	}
	r, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Expectation()-energy) > 1e-9 {
		t.Error("reported ladder energy does not reproduce")
	}
	if _, _, _, _, err := OptimizeParametersInterp(sim, 0, 10); err == nil {
		t.Error("pmax=0 accepted")
	}
}
