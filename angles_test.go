package qokit

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// TestNonFiniteAnglesRejected sends NaN, +Inf and −Inf in each of γ and
// β through every evaluation entry point of a registry-backed Service,
// through Simulator.SimulateQAOA and through every distributed entry
// point: each must return an error wrapping ErrNonFiniteAngle that
// names the offending index, never a NaN result, and the pool must
// still serve a finite point afterwards.
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
	dopts := DistOptions{Ranks: 2}
	deng, err := NewDistributedGradEngine(n, LABSTerms(n), dopts)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := DistCheckpointOptions{Path: filepath.Join(t.TempDir(), "fwd.ckpt")}
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

			gamma, beta := x[:2], x[2:]
			_, err = SimulateQAOADistributed(n, LABSTerms(n), gamma, beta, dopts)
			check("SimulateQAOADistributed", err)
			_, err = SimulateQAOADistributedGrad(n, LABSTerms(n), gamma, beta, dopts)
			check("SimulateQAOADistributedGrad", err)
			_, err = SimulateQAOADistributedCheckpointed(n, LABSTerms(n), gamma, beta, dopts, ckpt)
			check("SimulateQAOADistributedCheckpointed", err)
			_, err = SimulateQAOADistributedOutputs(n, LABSTerms(n), gamma, beta, dopts, OutputSpec{Shots: 4, CVaRAlphas: []float64{0.5}})
			check("SimulateQAOADistributedOutputs", err)
			_, err = deng.EnergyGradAngles(ctx, gamma, beta, make([]float64, 2), make([]float64, 2))
			check("DistributedGradEngine.EnergyGradAngles", err)
			_, err = deng.Outputs(ctx, gamma, beta, OutputSpec{Shots: 4})
			check("DistributedGradEngine.Outputs", err)
			_, err = deng.Energy(ctx, x)
			check("DistributedGradEngine.Energy", err)
		}
	}
	if e, err := deng.Energy(ctx, good); err != nil || math.IsNaN(e) {
		t.Fatalf("distributed engine after rejections: energy %v, error %v", e, err)
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

// TestNonFiniteCostRejected: a NaN or ±Inf cost — a term weight through
// NewSimulator or ProblemRegistry.Register, a diagonal entry through
// NewSimulatorFromDiagonal — returns an error wrapping
// ErrNonFiniteCost, never a simulator or registered problem whose
// energies and gradients come out NaN.
func TestNonFiniteCostRejected(t *testing.T) {
	const n = 4
	diag, err := PrecomputeDiagonal(n, LABSTerms(n))
	if err != nil {
		t.Fatal(err)
	}
	withWeight := func(w float64) Terms { return append(LABSTerms(n), NewTerm(w, 0, 1)) }
	withEntry := func(x int, v float64) []float64 {
		d := append([]float64(nil), diag...)
		d[x] = v
		return d
	}
	overflow := Terms{NewTerm(1e308, 0), NewTerm(1e308, 1)}
	registryServiceEnergy := func(dist *DistOptions) error {
		reg := NewProblemRegistry(RegistryOptions{})
		key, err := reg.Register(ProblemSpec{N: n, Terms: overflow})
		if err != nil {
			return err
		}
		svc, err := NewRegistryService(reg, key, RegistryServiceOptions{Distributed: dist})
		if err != nil {
			return err
		}
		defer svc.Close()
		_, err = svc.Energy(context.Background(), []float64{0.1, 0.2})
		return err
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"NewSimulator NaN weight", func() error {
			_, err := NewSimulator(n, withWeight(math.NaN()), Options{})
			return err
		}},
		{"NewSimulator +Inf weight (serial)", func() error {
			_, err := NewSimulator(n, withWeight(math.Inf(1)), Options{Backend: BackendSerial})
			return err
		}},
		{"Register NaN weight", func() error {
			_, err := NewProblemRegistry(RegistryOptions{}).Register(ProblemSpec{N: n, Terms: withWeight(math.NaN())})
			return err
		}},
		{"Register weights cancelling to NaN", func() error {
			terms := append(withWeight(math.Inf(1)), NewTerm(math.Inf(-1), 1, 0))
			_, err := NewProblemRegistry(RegistryOptions{}).Register(ProblemSpec{N: n, Terms: terms})
			return err
		}},
		{"NewSimulatorFromDiagonal +Inf entry", func() error {
			_, err := NewSimulatorFromDiagonal(n, withEntry(5, math.Inf(1)), Options{})
			return err
		}},
		{"NewSimulatorFromDiagonal NaN entry (parallel)", func() error {
			_, err := NewSimulatorFromDiagonal(n, withEntry(0, math.NaN()), Options{Backend: BackendParallel})
			return err
		}},
		{"NewSimulatorFromDiagonal −Inf entry (xy-ring)", func() error {
			_, err := NewSimulatorFromDiagonal(n, withEntry(1<<n-1, math.Inf(-1)), Options{Mixer: MixerXYRing})
			return err
		}},
		// Finite weights whose sum overflows: Terms.Validate passes, but
		// the n = 4 diagonal holds +Inf, which every shard scan rejects.
		{"NewDistributedGradEngine overflowing weights", func() error {
			_, err := NewDistributedGradEngine(n, overflow, DistOptions{Ranks: 2})
			return err
		}},
		{"NewDistributedGradEngine overflowing weights (quantized)", func() error {
			_, err := NewDistributedGradEngine(n, overflow, DistOptions{Ranks: 2, Quantize: true})
			return err
		}},
		{"SimulateQAOADistributed overflowing weights", func() error {
			_, err := SimulateQAOADistributed(n, overflow, []float64{0.1}, []float64{0.2}, DistOptions{Ranks: 2})
			return err
		}},
		{"SimulateQAOADistributedOutputs overflowing weights", func() error {
			_, err := SimulateQAOADistributedOutputs(n, overflow, []float64{0.1}, []float64{0.2}, DistOptions{Ranks: 2},
				OutputSpec{CVaRAlphas: []float64{0.1}})
			return err
		}},
		{"NewSimulator overflowing weights", func() error {
			_, err := NewSimulator(n, overflow, Options{})
			return err
		}},
		{"distributed registry service overflowing weights", func() error {
			return registryServiceEnergy(&DistOptions{Ranks: 2})
		}},
		{"single-node registry service overflowing weights", func() error {
			return registryServiceEnergy(nil)
		}},
	} {
		if err := c.run(); !errors.Is(err, ErrNonFiniteCost) {
			t.Errorf("%s: error %v, want ErrNonFiniteCost", c.name, err)
		}
	}
}
