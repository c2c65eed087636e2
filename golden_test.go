package qokit

// Golden-value regression suite: known reference quantities pinned as
// literals, so kernel refactors (new backends, fused sweeps,
// distributed layouts) cannot silently drift results. Three layers:
//
//   - problem generators: LABS optimal energies / merit factors at
//     small n re-verified by brute force against the literature values
//     (Packebusch & Mertens 2016), and the brute-force MaxCut optimum
//     of a fixed seeded graph;
//   - simulator outputs: QAOA energies and overlaps at fixed angles on
//     fixed instances, pinned to 1e-9;
//   - gradients: one adjoint evaluation pinned componentwise.
//
// If an intentional physics-level change moves these numbers, the
// change must be explained in the commit that re-pins them.

import (
	"context"
	"math"
	"testing"

	"qokit/internal/graphs"
)

// goldenMeritFactors are Golay merit factors F = n²/(2E*) of the
// optimal LABS sequences for n = 3…16 (literature optima; famously
// F(13) ≈ 14.08).
var goldenMeritFactors = map[int]float64{
	3: 4.5, 4: 4, 5: 6.25, 6: 2.57142857142857, 7: 8.16666666666667,
	8: 4, 9: 3.375, 10: 3.84615384615385, 11: 12.1, 12: 7.2,
	13: 14.0833333333333, 14: 5.15789473684211, 15: 7.5, 16: 5.33333333333333,
}

func TestGoldenLABSMeritFactors(t *testing.T) {
	for n, want := range goldenMeritFactors {
		// Brute force the optimum independently of the terms pipeline.
		best := math.MaxInt64
		for x := uint64(0); x < 1<<uint(n); x++ {
			if e := LABSEnergy(x, n); e < best {
				best = e
			}
		}
		if tab, ok := LABSOptimalEnergy(n); !ok || tab != best {
			t.Errorf("n=%d: table optimum %d (ok=%v), brute force %d", n, tab, ok, best)
		}
		if got := MeritFactor(n, best); math.Abs(got-want) > 1e-12 {
			t.Errorf("n=%d: merit factor %.15g, golden %.15g", n, got, want)
		}
		// The cost diagonal must reach exactly the same minimum.
		diag, err := PrecomputeDiagonal(n, LABSTerms(n))
		if err != nil {
			t.Fatal(err)
		}
		min := diag[0]
		for _, v := range diag[1:] {
			if v < min {
				min = v
			}
		}
		if math.Abs(min-float64(best)) > 1e-9 {
			t.Errorf("n=%d: diagonal minimum %g, want %d", n, min, best)
		}
	}
}

func TestGoldenQAOAEnergies(t *testing.T) {
	const tol = 1e-9
	cases := []struct {
		name        string
		n           int
		terms       Terms
		opts        Options
		gamma, beta []float64
		wantE       float64
		wantOverlap float64
	}{
		{
			name: "labs-n10-p3",
			n:    10, terms: LABSTerms(10), opts: Options{Backend: BackendSerial},
			gamma: []float64{0.1, 0.25, 0.4}, beta: []float64{0.35, 0.2, 0.05},
			wantE: 53.7702073863031, wantOverlap: 0.0297282108303518,
		},
		{
			name: "maxcut-rr10-3-seed7-p2",
			n:    10, terms: mustMaxCutTerms(t), opts: Options{Backend: BackendSerial},
			gamma: []float64{0.2, 0.4}, beta: []float64{0.3, 0.15},
			wantE: -4.66717585228096, wantOverlap: 2.29813607188028e-07,
		},
		{
			name: "maxcut-ring8-xyring-p2",
			n:    8, terms: MaxCutTerms(graphs.Ring(8)), opts: Options{Backend: BackendSerial, Mixer: MixerXYRing},
			gamma: []float64{0.3, 0.1}, beta: []float64{0.2, 0.4},
			wantE: -4.70819226425699, wantOverlap: 0.0669137051468073,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The pins are backend-independent physics: check the serial
			// reference and the default (SoA) engine against the same
			// literals.
			for _, opts := range []Options{tc.opts, {Mixer: tc.opts.Mixer}} {
				sim, err := NewSimulator(tc.n, tc.terms, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.SimulateQAOA(tc.gamma, tc.beta)
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(res.Expectation() - tc.wantE); d > tol {
					t.Errorf("backend %v: energy %.15g drifted from golden %.15g by %g",
						sim.Backend(), res.Expectation(), tc.wantE, d)
				}
				if d := math.Abs(res.Overlap() - tc.wantOverlap); d > tol {
					t.Errorf("backend %v: overlap %.15g drifted from golden %.15g by %g",
						sim.Backend(), res.Overlap(), tc.wantOverlap, d)
				}
			}
		})
	}
}

func mustMaxCutTerms(t *testing.T) Terms {
	t.Helper()
	g, err := RandomRegular(10, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	return MaxCutTerms(g)
}

func TestGoldenMaxCutOptimum(t *testing.T) {
	g, err := RandomRegular(10, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	best, _, err := MaxCutBrute(g)
	if err != nil {
		t.Fatal(err)
	}
	if best != 13 {
		t.Errorf("RandomRegular(10,3,7) optimal cut = %d, golden 13", best)
	}
	sim, err := NewSimulator(10, MaxCutTerms(g), Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sim.MinCost()-(-13)) > 1e-9 {
		t.Errorf("MaxCut diagonal minimum %g, golden -13 (= −optimal cut)", sim.MinCost())
	}
}

func TestGoldenAdjointGradient(t *testing.T) {
	const tol = 1e-9
	sim, err := NewSimulator(8, LABSTerms(8), Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	e, gg, gb, err := sim.SimulateQAOAGrad([]float64{0.15, 0.3}, []float64{0.4, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	wantE := 30.8620007881046
	wantGG := []float64{-162.762628124734, -331.562098332692}
	wantGB := []float64{10.4279654385294, -40.4110993875906}
	if math.Abs(e-wantE) > tol {
		t.Errorf("energy %.15g drifted from golden %.15g", e, wantE)
	}
	for l := range wantGG {
		if d := math.Abs(gg[l] - wantGG[l]); d > tol*math.Abs(wantGG[l]) {
			t.Errorf("∂γ_%d = %.15g drifted from golden %.15g", l, gg[l], wantGG[l])
		}
		if d := math.Abs(gb[l] - wantGB[l]); d > tol*math.Abs(wantGB[l]) {
			t.Errorf("∂β_%d = %.15g drifted from golden %.15g", l, gb[l], wantGB[l])
		}
	}

	// The distributed engine must land on the same pins.
	eng, err := NewDistributedGradEngine(8, LABSTerms(8), DistOptions{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	dgg, dgb := make([]float64, 2), make([]float64, 2)
	de, err := eng.EnergyGradAngles(context.Background(), []float64{0.15, 0.3}, []float64{0.4, 0.2}, dgg, dgb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(de-wantE) > tol {
		t.Errorf("distributed energy %.15g drifted from golden %.15g", de, wantE)
	}
	for l := range wantGG {
		if d := math.Abs(dgg[l] - wantGG[l]); d > tol*math.Abs(wantGG[l]) {
			t.Errorf("distributed ∂γ_%d drifted by %g", l, d)
		}
		if d := math.Abs(dgb[l] - wantGB[l]); d > tol*math.Abs(wantGB[l]) {
			t.Errorf("distributed ∂β_%d drifted by %g", l, d)
		}
	}
}
