package distsim

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"qokit/internal/cluster"
	"qokit/internal/core"
	"qokit/internal/problems"
)

// TestDistributedQuantizedMatchesFloat64 is the quantized acceptance
// matrix: with the uint16 diagonal agreed per rank against the global
// (min, scale), distributed energies, adjoint gradients, MinCost and
// overlap must equal the float64 distributed path bit for bit over
// ranks {1,2,4,8} × {x, xy-ring} × p {1,4,12}. Both shards read the
// same level values — the codes are exact for LABS's integer costs —
// through the same kernels, and the per-γ table entries are the sincos
// of the float64 entries.
func TestDistributedQuantizedMatchesFloat64(t *testing.T) {
	const n = 8
	terms := problems.LABSTerms(n)
	rng := rand.New(rand.NewSource(91))
	for _, mixer := range []core.Mixer{core.MixerX, core.MixerXYRing} {
		for _, p := range []int{1, 4, 12} {
			gamma, beta := randomAngles(rng, p)
			for _, ranks := range []int{1, 2, 4, 8} {
				base := Options{Ranks: ranks, Algo: cluster.Transpose, Mixer: mixer}
				ref, err := SimulateQAOAGrad(context.Background(), n, terms, gamma, beta, base)
				if err != nil {
					t.Fatal(err)
				}
				qopts := base
				qopts.Quantize = true
				got, err := SimulateQAOAGrad(context.Background(), n, terms, gamma, beta, qopts)
				if err != nil {
					t.Fatalf("%v K=%d p=%d quantized: %v", mixer, ranks, p, err)
				}
				if got.Energy != ref.Energy {
					t.Errorf("%v K=%d p=%d: quantized energy %v, float64 %v", mixer, ranks, p, got.Energy, ref.Energy)
				}
				for l := 0; l < p; l++ {
					if got.GradGamma[l] != ref.GradGamma[l] || got.GradBeta[l] != ref.GradBeta[l] {
						t.Errorf("%v K=%d p=%d layer %d: quantized gradient (%v, %v), float64 (%v, %v)",
							mixer, ranks, p, l, got.GradGamma[l], got.GradBeta[l], ref.GradGamma[l], ref.GradBeta[l])
					}
				}
				// The diagonal representation changes nothing on the wire.
				if got.Comm.BytesSent != ref.Comm.BytesSent || got.Comm.Messages != ref.Comm.Messages {
					t.Errorf("%v K=%d p=%d: quantized traffic (%d B, %d msgs) differs from float64 (%d B, %d msgs)",
						mixer, ranks, p, got.Comm.BytesSent, got.Comm.Messages, ref.Comm.BytesSent, ref.Comm.Messages)
				}

				// Forward pipeline: energy, restricted minimum, overlap.
				fref, err := SimulateQAOA(context.Background(), n, terms, gamma, beta, base)
				if err != nil {
					t.Fatal(err)
				}
				fq, err := SimulateQAOA(context.Background(), n, terms, gamma, beta, qopts)
				if err != nil {
					t.Fatalf("%v K=%d p=%d quantized forward: %v", mixer, ranks, p, err)
				}
				if fq.Expectation != fref.Expectation || fq.MinCost != fref.MinCost || fq.Overlap != fref.Overlap {
					t.Errorf("%v K=%d p=%d: quantized forward (E %v, min %v, overlap %v), float64 (%v, %v, %v)",
						mixer, ranks, p, fq.Expectation, fq.MinCost, fq.Overlap, fref.Expectation, fref.MinCost, fref.Overlap)
				}
			}
		}
	}
}

// TestDistributedFloat32GradBand is the single-precision acceptance
// matrix: float32 shards inherit the single-node SoA32 error model, so
// distributed energies and gradients must sit within the 2e-3 band of
// the float64 distributed results over ranks {1,2,4,8} × {x, xy-ring}
// × p {1,4,12}.
func TestDistributedFloat32GradBand(t *testing.T) {
	const n = 8
	const band = 2e-3
	terms := problems.LABSTerms(n)
	rng := rand.New(rand.NewSource(92))
	for _, mixer := range []core.Mixer{core.MixerX, core.MixerXYRing} {
		for _, p := range []int{1, 4, 12} {
			gamma, beta := randomAngles(rng, p)
			for _, ranks := range []int{1, 2, 4, 8} {
				base := Options{Ranks: ranks, Algo: cluster.Transpose, Mixer: mixer}
				ref, err := SimulateQAOAGrad(context.Background(), n, terms, gamma, beta, base)
				if err != nil {
					t.Fatal(err)
				}
				f32opts := base
				f32opts.Precision = PrecisionFloat32
				got, err := SimulateQAOAGrad(context.Background(), n, terms, gamma, beta, f32opts)
				if err != nil {
					t.Fatalf("%v K=%d p=%d float32: %v", mixer, ranks, p, err)
				}
				eScale := math.Max(math.Abs(ref.Energy), 1)
				if d := math.Abs(got.Energy - ref.Energy); d > band*eScale {
					t.Errorf("%v K=%d p=%d: float32 energy differs by %g (band %g)", mixer, ranks, p, d, band*eScale)
				}
				scale := math.Max(maxAbs(ref.GradGamma, ref.GradBeta), 1)
				for l := 0; l < p; l++ {
					if d := math.Abs(got.GradGamma[l] - ref.GradGamma[l]); d > band*scale {
						t.Errorf("%v K=%d p=%d: float32 ∂γ_%d differs by %g (scale %g)", mixer, ranks, p, l, d, scale)
					}
					if d := math.Abs(got.GradBeta[l] - ref.GradBeta[l]); d > band*scale {
						t.Errorf("%v K=%d p=%d: float32 ∂β_%d differs by %g (scale %g)", mixer, ranks, p, l, d, scale)
					}
				}
			}
		}
	}
}

// TestFloat32AgainstSingleNodeSoA32 cross-checks the distributed
// float32 pipeline against the single-node SoA32 backend: same
// representation, same band.
func TestFloat32AgainstSingleNodeSoA32(t *testing.T) {
	const n, p = 8, 4
	terms := problems.LABSTerms(n)
	rng := rand.New(rand.NewSource(93))
	gamma, beta := randomAngles(rng, p)
	single, err := core.New(n, terms, core.Options{Backend: core.BackendSoA, SinglePrecision: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refE, refGG, refGB, err := single.SimulateQAOAGrad(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulateQAOAGrad(context.Background(), n, terms, gamma, beta,
		Options{Ranks: 4, Algo: cluster.Transpose, Precision: PrecisionFloat32})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(got.Energy - refE); d > 1e-5*math.Max(math.Abs(refE), 1) {
		t.Errorf("distributed float32 energy differs from single-node SoA32 by %g", d)
	}
	scale := math.Max(maxAbs(refGG, refGB), 1)
	for l := 0; l < p; l++ {
		if d := math.Abs(got.GradGamma[l] - refGG[l]); d > 1e-4*scale {
			t.Errorf("∂γ_%d differs from single-node SoA32 by %g", l, d)
		}
		if d := math.Abs(got.GradBeta[l] - refGB[l]); d > 1e-4*scale {
			t.Errorf("∂β_%d differs from single-node SoA32 by %g", l, d)
		}
	}
}

// TestFloat32TrafficHalved pins the wire contract of the float32
// shards: exactly half the float64 bytes at identical message counts,
// for both mixer families, forward and gradient — and the gradient's
// 3×-forward invariant survives the precision change.
func TestFloat32TrafficHalved(t *testing.T) {
	const n, p, ranks = 8, 3, 4
	terms := problems.LABSTerms(n)
	rng := rand.New(rand.NewSource(94))
	gamma, beta := randomAngles(rng, p)
	for _, mixer := range []core.Mixer{core.MixerX, core.MixerXYRing, core.MixerXYComplete} {
		base := Options{Ranks: ranks, Algo: cluster.Transpose, Mixer: mixer}
		f32opts := base
		f32opts.Precision = PrecisionFloat32

		fwd64, err := SimulateQAOA(context.Background(), n, terms, gamma, beta, base)
		if err != nil {
			t.Fatal(err)
		}
		fwd32, err := SimulateQAOA(context.Background(), n, terms, gamma, beta, f32opts)
		if err != nil {
			t.Fatal(err)
		}
		if 2*fwd32.Comm.BytesSent != fwd64.Comm.BytesSent {
			t.Errorf("%v forward: float32 moved %d bytes, float64 %d — want exactly half",
				mixer, fwd32.Comm.BytesSent, fwd64.Comm.BytesSent)
		}
		if fwd32.Comm.Messages != fwd64.Comm.Messages {
			t.Errorf("%v forward: float32 sent %d messages, float64 %d — want identical",
				mixer, fwd32.Comm.Messages, fwd64.Comm.Messages)
		}

		grad64, err := SimulateQAOAGrad(context.Background(), n, terms, gamma, beta, base)
		if err != nil {
			t.Fatal(err)
		}
		grad32, err := SimulateQAOAGrad(context.Background(), n, terms, gamma, beta, f32opts)
		if err != nil {
			t.Fatal(err)
		}
		if 2*grad32.Comm.BytesSent != grad64.Comm.BytesSent {
			t.Errorf("%v grad: float32 moved %d bytes, float64 %d — want exactly half",
				mixer, grad32.Comm.BytesSent, grad64.Comm.BytesSent)
		}
		if grad32.Comm.Messages != grad64.Comm.Messages {
			t.Errorf("%v grad: float32 sent %d messages, float64 %d — want identical",
				mixer, grad32.Comm.Messages, grad64.Comm.Messages)
		}
		if grad32.Comm.BytesSent != 3*fwd32.Comm.BytesSent {
			t.Errorf("%v: float32 grad moved %d bytes, want 3× forward %d",
				mixer, grad32.Comm.BytesSent, 3*fwd32.Comm.BytesSent)
		}
	}
}

// TestPrecisionValidationNamesFields asserts every new option-
// validation error names the offending Options field(s), extending the
// PR 3 convention to the precision/quantization surface.
func TestPrecisionValidationNamesFields(t *testing.T) {
	terms := problems.LABSTerms(4)
	cases := []struct {
		opts Options
		want []string
	}{
		{Options{Ranks: 2, Precision: Precision(9)}, []string{"Options.Precision"}},
		{Options{Ranks: 2, Quantize: true, Precision: PrecisionFloat32}, []string{"Options.Quantize", "Options.Precision"}},
		{Options{Ranks: 2, QuantScale: -0.5}, []string{"Options.QuantScale"}},
		{Options{Ranks: 2, QuantScale: 1}, []string{"Options.QuantScale", "Options.Quantize"}},
		{Options{Ranks: 2, Gather: true, Quantize: true}, []string{"Options.Gather", "Options.Quantize"}},
		{Options{Ranks: 2, Gather: true, Precision: PrecisionFloat32}, []string{"Options.Gather", "Options.Precision"}},
	}
	for _, tc := range cases {
		for _, check := range []struct {
			name string
			err  error
		}{
			{"NewGradEngine", func() error { _, err := NewGradEngine(4, terms, tc.opts); return err }()},
			{"SimulateQAOA", func() error { _, err := SimulateQAOA(context.Background(), 4, terms, nil, nil, tc.opts); return err }()},
		} {
			if check.err == nil {
				t.Errorf("%s accepted opts %+v", check.name, tc.opts)
				continue
			}
			for _, want := range tc.want {
				if !strings.Contains(check.err.Error(), want) {
					t.Errorf("%s opts %+v: error %q does not name %s", check.name, tc.opts, check.err, want)
				}
			}
		}
	}
}

// TestValidateEnginePairNamesFields covers the forward/grad pairing
// check: mismatched precision or quantization between the two engines
// of one harness fails fast, naming the field.
func TestValidateEnginePairNamesFields(t *testing.T) {
	ok := Options{Ranks: 2}
	if err := ValidateEnginePair(ok, ok); err != nil {
		t.Errorf("matched pair rejected: %v", err)
	}
	cases := []struct {
		fwd, grad Options
		want      string
	}{
		{Options{Ranks: 2, Precision: PrecisionFloat32}, Options{Ranks: 2}, "Options.Precision"},
		{Options{Ranks: 2}, Options{Ranks: 2, Quantize: true}, "Options.Quantize"},
		{Options{Ranks: 2, Quantize: true, QuantScale: 1}, Options{Ranks: 2, Quantize: true, QuantScale: 0.5}, "Options.QuantScale"},
	}
	for _, tc := range cases {
		err := ValidateEnginePair(tc.fwd, tc.grad)
		if err == nil {
			t.Errorf("pair (%+v, %+v) accepted", tc.fwd, tc.grad)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("pair (%+v, %+v): error %q does not name %s", tc.fwd, tc.grad, err, tc.want)
		}
	}
}

// TestQuantizedEngineRejectsUnrepresentable: a fixed QuantScale that
// cannot represent the shards fails engine construction (and the
// one-shot pipeline) with an error instead of silently rounding — and
// the group unwinds cleanly, no rank stranded.
func TestQuantizedEngineRejectsUnrepresentable(t *testing.T) {
	n := 6
	// LABS costs are integers, so a coarse scale of 64 cannot represent
	// the unit steps between adjacent cost levels.
	terms := problems.LABSTerms(n)
	if _, err := NewGradEngine(n, terms, Options{Ranks: 4, Quantize: true, QuantScale: 64}); err == nil {
		t.Error("unrepresentable QuantScale accepted by NewGradEngine")
	}
	if _, err := SimulateQAOA(context.Background(), n, terms, []float64{0.3}, []float64{0.2},
		Options{Ranks: 4, Quantize: true, QuantScale: 64}); err == nil {
		t.Error("unrepresentable QuantScale accepted by SimulateQAOA")
	}
	// A workable explicit scale matches auto selection exactly.
	a, err := SimulateQAOAGrad(context.Background(), n, terms, []float64{0.3}, []float64{0.2},
		Options{Ranks: 4, Quantize: true, QuantScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateQAOAGrad(context.Background(), n, terms, []float64{0.3}, []float64{0.2},
		Options{Ranks: 4, Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy != b.Energy || a.GradGamma[0] != b.GradGamma[0] || a.GradBeta[0] != b.GradBeta[0] {
		t.Errorf("explicit scale 1 (%v) differs from auto (%v)", a.Energy, b.Energy)
	}
}

// TestCapsStateBytesReflectPrecision pins the pool-packing contract:
// the float32 engine reports exactly half the float64 engine's
// per-evaluation state memory, for both mixer families.
func TestCapsStateBytesReflectPrecision(t *testing.T) {
	terms := problems.LABSTerms(8)
	for _, mixer := range []core.Mixer{core.MixerX, core.MixerXYRing} {
		e64, err := NewGradEngine(8, terms, Options{Ranks: 4, Mixer: mixer})
		if err != nil {
			t.Fatal(err)
		}
		e32, err := NewGradEngine(8, terms, Options{Ranks: 4, Mixer: mixer, Precision: PrecisionFloat32})
		if err != nil {
			t.Fatal(err)
		}
		b64 := e64.Caps().StateBytes
		b32 := e32.Caps().StateBytes
		if b64 <= 0 || 2*b32 != b64 {
			t.Errorf("%v: StateBytes float32 %d vs float64 %d — want exactly half", mixer, b32, b64)
		}
	}
	eq, err := NewGradEngine(8, terms, Options{Ranks: 4, Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	e64, err := NewGradEngine(8, terms, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if eq.Caps().StateBytes != e64.Caps().StateBytes {
		t.Errorf("quantized StateBytes %d differs from float64 %d — quantization compresses the diagonal, not the state",
			eq.Caps().StateBytes, e64.Caps().StateBytes)
	}
}

// TestPrecisionEnginesConcurrent hammers the quantized and float32
// engines with concurrent evaluations (run under -race in CI): leased
// rank groups must reproduce the single-flight results exactly per
// representation.
func TestPrecisionEnginesConcurrent(t *testing.T) {
	const n, p, goroutines, reps = 8, 3, 4, 2
	terms := problems.LABSTerms(n)
	rng := rand.New(rand.NewSource(95))
	gamma, beta := randomAngles(rng, p)
	for _, opts := range []Options{
		{Ranks: 4, Algo: cluster.Transpose, Quantize: true, Concurrency: 2},
		{Ranks: 4, Algo: cluster.Transpose, Precision: PrecisionFloat32, Concurrency: 2},
		{Ranks: 4, Algo: cluster.Transpose, Mixer: core.MixerXYRing, Precision: PrecisionFloat32, Concurrency: 2},
	} {
		ref, err := SimulateQAOAGrad(context.Background(), n, terms, gamma, beta, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewGradEngine(n, terms, opts)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gg := make([]float64, p)
				gb := make([]float64, p)
				for r := 0; r < reps; r++ {
					e, err := eng.EnergyGradAngles(context.Background(), gamma, beta, gg, gb)
					if err != nil {
						t.Error(err)
						return
					}
					if e != ref.Energy {
						t.Errorf("opts %+v: concurrent energy %v != %v", opts, e, ref.Energy)
						return
					}
					for l := 0; l < p; l++ {
						if gg[l] != ref.GradGamma[l] || gb[l] != ref.GradBeta[l] {
							t.Errorf("opts %+v: concurrent gradient layer %d mismatch", opts, l)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
