package qokit

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestNonFiniteAnglesRejected sends NaN, +Inf and −Inf in each of γ and
// β through every evaluation entry point of a registry-backed Service
// and through Simulator.SimulateQAOA: each must return an error
// wrapping ErrNonFiniteAngle that names the offending index, never a
// NaN result, and the pool must still serve a finite point afterwards.
func TestNonFiniteAnglesRejected(t *testing.T) {
	const n = 6
	ctx := context.Background()
	reg := NewProblemRegistry(RegistryOptions{})
	key, err := reg.Register(ProblemSpec{N: n, Terms: LABSTerms(n)})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewRegistryService(reg, key, RegistryServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sim, err := NewSimulator(n, LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := []float64{0.2, 0.3, 0.4, 0.1}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for idx, name := range []string{"gamma[0]", "gamma[1]", "beta[0]", "beta[1]"} {
			x := append([]float64(nil), good...)
			x[idx] = bad
			check := func(entry string, err error) {
				t.Helper()
				if !errors.Is(err, ErrNonFiniteAngle) || !strings.Contains(err.Error(), name) {
					t.Errorf("%s with %s = %v: error %v, want ErrNonFiniteAngle naming %s", entry, name, bad, err, name)
				}
			}
			_, err := svc.Energy(ctx, x)
			check("Service.Energy", err)
			_, err = svc.EnergyGrad(ctx, x, make([]float64, len(x)))
			check("Service.EnergyGrad", err)
			_, err = svc.EvalOutputs(ctx, x, OutputSpec{Shots: 4, Variance: true})
			check("Service.EvalOutputs", err)
			_, err = sim.SimulateQAOA(x[:2], x[2:])
			check("Simulator.SimulateQAOA", err)
		}
	}
	grad := make([]float64, len(good))
	e, err := svc.EnergyGrad(ctx, good, grad)
	if err != nil || math.IsNaN(e) || math.IsInf(e, 0) {
		t.Fatalf("finite point after rejections: energy %v, error %v", e, err)
	}
	for i, g := range grad {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("finite point after rejections: grad[%d] = %v", i, g)
		}
	}
}
