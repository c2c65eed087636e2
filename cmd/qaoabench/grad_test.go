package main

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"qokit/internal/core"
	"qokit/internal/problems"
)

// TestFiniteDiffGradMatchesAdjoint cross-checks the finite-difference
// baseline `qaoabench grad` times against the exact adjoint gradient,
// and pins its input validation.
func TestFiniteDiffGradMatchesAdjoint(t *testing.T) {
	const n, p = 8, 4
	rng := rand.New(rand.NewSource(7))
	sim, err := core.New(n, problems.LABSTerms(n), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gamma := make([]float64, p)
	beta := make([]float64, p)
	for l := 0; l < p; l++ {
		gamma[l] = rng.Float64()*2 - 1
		beta[l] = rng.Float64()*2 - 1
	}
	eAdj, aG, aB, err := sim.SimulateQAOAGrad(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := sim.NewResult()
	fG := make([]float64, p)
	fB := make([]float64, p)
	eFD, err := finiteDiffGrad(ctx, sim, r, gamma, beta, 0, fG, fB)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(eAdj - eFD); d > 1e-12 {
		t.Errorf("center energies differ by %v", d)
	}
	for l := 0; l < p; l++ {
		if d := math.Abs(aG[l] - fG[l]); d > 1e-6 {
			t.Errorf("∂γ_%d: adjoint %v vs fd %v", l, aG[l], fG[l])
		}
		if d := math.Abs(aB[l] - fB[l]); d > 1e-6 {
			t.Errorf("∂β_%d: adjoint %v vs fd %v", l, aB[l], fB[l])
		}
	}
	if _, err := finiteDiffGrad(ctx, sim, r, gamma, beta[:p-1], 0, fG, fB); err == nil {
		t.Error("mismatched schedules accepted")
	}
	if _, err := finiteDiffGrad(ctx, sim, r, gamma, beta, 0, fG[:p-1], fB); err == nil {
		t.Error("short gradient storage accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := finiteDiffGrad(cancelled, sim, r, gamma, beta, 0, fG, fB); err != context.Canceled {
		t.Errorf("cancelled context: err = %v, want context.Canceled", err)
	}
}
