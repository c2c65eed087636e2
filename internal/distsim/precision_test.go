package distsim

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qokit/internal/cluster"
	"qokit/internal/core"
	"qokit/internal/poly"
	"qokit/internal/problems"
)

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
				ref, err := simulateGrad(context.Background(), n, terms, gamma, beta, base)
				if err != nil {
					t.Fatal(err)
				}
				f32opts := base
				f32opts.Precision = PrecisionFloat32
				got, err := simulateGrad(context.Background(), n, terms, gamma, beta, f32opts)
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
	got, err := simulateGrad(context.Background(), n, terms, gamma, beta,
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

		grad64, err := simulateGrad(context.Background(), n, terms, gamma, beta, base)
		if err != nil {
			t.Fatal(err)
		}
		grad32, err := simulateGrad(context.Background(), n, terms, gamma, beta, f32opts)
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

// TestPrecisionValidationNamesFields asserts every precision
// validation error names the offending Options field(s).
func TestPrecisionValidationNamesFields(t *testing.T) {
	terms := problems.LABSTerms(4)
	cases := []struct {
		opts Options
		want []string
	}{
		{Options{Ranks: 2, Precision: Precision(9)}, []string{"Options.Precision"}},
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

// TestCapsStateBytesReflectPrecision pins the pool-packing contract:
// the float32 engine reports exactly half the float64 engine's
// per-evaluation state memory, for both mixer families, and every
// buffer a lease keeps is counted.
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
	// The figures count the stored states exactly — LABS's quarter
	// shards under the x mixer, full shards under xy: ψ and λ, plus the
	// all-to-all receive scratch an x-mixer lease keeps at K ≥ 2 — a
	// slice per rank under Transpose, a subchunk under Pairwise — or the
	// xy mixers' two receive planes and half-size send buffer.
	const quarter, state = int64(16) << 6, int64(16) << 8
	for _, c := range []struct {
		opts Options
		want int64
	}{
		{Options{Ranks: 1, Algo: cluster.Transpose}, 2 * quarter},
		{Options{Ranks: 4, Algo: cluster.Transpose}, 3 * quarter},
		{Options{Ranks: 4, Algo: cluster.Pairwise}, 2*quarter + quarter/4},
		{Options{Ranks: 2, Algo: cluster.Pairwise}, 2*quarter + quarter/2},
		{Options{Ranks: 4, Algo: cluster.Transpose, Mixer: core.MixerXYRing}, 4*state + state/2},
	} {
		e, err := NewGradEngine(8, terms, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Caps().StateBytes; got != c.want {
			t.Errorf("K=%d %v %v: StateBytes %d, want %d", c.opts.Ranks, c.opts.Algo, c.opts.Mixer, got, c.want)
		}
	}
}

// TestCapsStateBytesMatchWarmPlanes requires Caps.StateBytes to equal
// the planes a warm engine holds, at K ∈ {1, 2}, for the x, xy-ring
// and xy-complete mixers in both precisions: every split plane of every
// rank's shard state, and the all-to-all receive scratch of the lease's
// rank group, counted by walking them with reflection.
func TestCapsStateBytesMatchWarmPlanes(t *testing.T) {
	const n, p = 8, 2
	x := []float64{0.3, 0.2, 0.4, 0.1}
	grad := make([]float64, 2*p)
	for _, mixer := range []core.Mixer{core.MixerX, core.MixerXYRing, core.MixerXYComplete} {
		for _, ranks := range []int{1, 2} {
			for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
				e, err := NewGradEngine(n, problems.LABSTerms(n), Options{Ranks: ranks, Mixer: mixer, Precision: prec})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.EnergyGrad(context.Background(), x, grad); err != nil {
					t.Fatal(err)
				}
				var held int64
				for _, rs := range e.lease.ranks {
					held += planeBytes(reflect.ValueOf(rs.Shard).Elem())
				}
				g := reflect.ValueOf(e.lease.group).Elem()
				for _, f := range []string{"planes64", "planes32"} {
					held += planeBytes(g.FieldByName(f).FieldByName("scratch"))
				}
				if got := e.Caps().StateBytes; got != held {
					t.Errorf("%v K=%d %v: Caps.StateBytes %d, a warm engine holds %d bytes of planes", mixer, ranks, prec, got, held)
				}
			}
		}
	}
}

// planeBytes returns the bytes of every float32 and float64 slice
// reachable from v through structs, arrays and slices.
func planeBytes(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Struct:
		var b int64
		for i := 0; i < v.NumField(); i++ {
			b += planeBytes(v.Field(i))
		}
		return b
	case reflect.Slice, reflect.Array:
		if k := v.Type().Elem().Kind(); k == reflect.Float64 || k == reflect.Float32 {
			return int64(v.Len()) * int64(v.Type().Elem().Size())
		}
		var b int64
		for i := 0; i < v.Len(); i++ {
			b += planeBytes(v.Index(i))
		}
		return b
	}
	return 0
}

// TestPrecisionEnginesConcurrent hammers engines on coded slices
// (codedProblem) and on float32 shards with concurrent callers (run
// under -race in CI), each on its own engine of one factory and all on
// one engine (concurrentEngines): every caller must reproduce the
// single-flight results exactly per representation.
func TestPrecisionEnginesConcurrent(t *testing.T) {
	const p, goroutines, reps = 3, 4, 2
	rng := rand.New(rand.NewSource(95))
	gamma, beta := randomAngles(rng, p)
	codedN, codedTerms := codedProblem(t)
	for _, c := range []struct {
		n     int
		terms poly.Terms
		opts  Options
	}{
		{codedN, codedTerms, Options{Ranks: 4, Algo: cluster.Transpose}},
		{8, problems.LABSTerms(8), Options{Ranks: 4, Algo: cluster.Transpose, Precision: PrecisionFloat32}},
		{8, problems.LABSTerms(8), Options{Ranks: 4, Algo: cluster.Transpose, Mixer: core.MixerXYRing, Precision: PrecisionFloat32}},
	} {
		n, terms, opts := c.n, c.terms, c.opts
		ref, err := simulateGrad(context.Background(), n, terms, gamma, beta, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, shared := range []bool{false, true} {
			var wg sync.WaitGroup
			for _, eng := range concurrentEngines(t, n, terms, opts, goroutines, shared) {
				wg.Add(1)
				go func(eng *GradEngine) {
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
							t.Errorf("opts %+v shared=%v: concurrent energy %v != %v", opts, shared, e, ref.Energy)
							return
						}
						for l := 0; l < p; l++ {
							if gg[l] != ref.GradGamma[l] || gb[l] != ref.GradBeta[l] {
								t.Errorf("opts %+v shared=%v: concurrent gradient layer %d mismatch", opts, shared, l)
								return
							}
						}
					}
				}(eng)
			}
			wg.Wait()
		}
	}
}
