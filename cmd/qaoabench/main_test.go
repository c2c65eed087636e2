package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunnersSmoke executes every experiment at the smallest sensible
// size, checking that each produces its headline output — the harness
// is part of the deliverable, so it is tested like one.
func TestRunnersSmoke(t *testing.T) {
	cases := []struct {
		name string
		run  func(w io.Writer, args []string) error
		args []string
		want []string
	}{
		{"fig2", runFig2, []string{"-nmin", "6", "-nmax", "8", "-reps", "1", "-p", "2"},
			[]string{"qokit-cpu", "qiskit-analog", "Speedup"}},
		{"fig3", runFig3, []string{"-nmin", "6", "-nmax", "8", "-tnmax", "6", "-reps", "1"},
			[]string{"qokit-soa", "tn-size", "Derived ratios", "kernel gap"}},
		{"fig4", runFig4, []string{"-n", "8", "-pmax", "16", "-reps", "1"},
			[]string{"crossover", "additivity check", "gates", "qokit+per-term-precompute", "per-term precompute p*"}},
		{"fig5", runFig5, []string{"-local", "8", "-kmax", "4", "-reps", "1"},
			[]string{"pairwise", "transpose", "modeled"}},
		{"opt", runOpt, []string{"-n", "8", "-p", "2", "-evals", "10"},
			[]string{"speedup", "gate-based"}},
		{"landscape", runLandscape, []string{"-n", "8", "-grid", "6"},
			[]string{"service-batch", "point-at-a-time", "landscape minimum"}},
		{"opt-lightcone", runOpt, []string{"-backend", "lightcone", "-graphn", "120", "-p", "2", "-evals", "10"},
			[]string{"qokit-lightcone", "unique classes", "expected cut"}},
		{"landscape-lightcone", runLandscape, []string{"-backend", "lightcone", "-graphn", "120", "-grid", "6"},
			[]string{"light-cone MaxCut 120-vertex", "unique classes", "landscape minimum"}},
		{"memory", runMemory, []string{"-n", "8"},
			[]string{"12.5%", "uint16 store exact: true"}},
		{"gates", runGates, []string{"-nmax", "13"},
			[]string{"terms/n", "mixer only"}},
		{"scaling", runScaling, []string{"-nmin", "6", "-nmax", "8", "-p", "3", "-seeds", "1", "-sasteps", "5000"},
			[]string{"fitted growth", "SA flips"}},
		{"precision", runPrecision, []string{"-n", "8", "-pmax", "16"},
			[]string{"float64", "norm−1", "extra qubit"}},
		{"grad", runGrad, []string{"-n", "8", "-p", "4", "-reps", "1"},
			[]string{"adjoint", "central-fd", "speedup"}},
		{"distgrad", runDistGrad, []string{"-n", "8", "-p", "2", "-kmax", "4", "-reps", "1"},
			[]string{"single-node", "pairwise", "transpose", "modeled-net"}},
		{"distgrad-float32", runDistGrad, []string{"-n", "8", "-p", "2", "-kmax", "4", "-reps", "1", "-precision", "float32"},
			[]string{"float32 shards", "half the", "modeled-net"}},
		// LABS n = 16 at K = 2: every rank's half slice is an exact grid
		// within the table bound, so the shards hold uint16 codes only.
		{"distgrad-quantized", runDistGrad, []string{"-n", "16", "-p", "2", "-kmax", "2", "-reps", "1"},
			[]string{"LABS n=16", "float64 shards", "modeled-net"}},
		{"suite", runSuite, []string{"-n", "8", "-p", "2", "-points", "8", "-reps", "1", "-kerneln", "10"},
			[]string{"forward", "distributed_grad", "BENCH_qaoa.json"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := tc.run(&out, tc.args); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for _, want := range tc.want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("%s output missing %q:\n%s", tc.name, want, out.String())
				}
			}
		})
	}
}

// TestSuiteJSONRoundTrips pins the machine-readable contract of
// `qaoabench suite -json`: valid JSON, the versioned schema tag, and
// one entry per benchmarked hot path — the shape CI archives as
// BENCH_qaoa.json.
func TestSuiteJSONRoundTrips(t *testing.T) {
	var out strings.Builder
	if err := runSuite(&out, []string{"-n", "8", "-p", "2", "-points", "4", "-reps", "1", "-kerneln", "10", "-lcn", "60", "-json"}); err != nil {
		t.Fatal(err)
	}
	var report suiteReport
	if err := json.Unmarshal([]byte(out.String()), &report); err != nil {
		t.Fatalf("suite -json emitted invalid JSON: %v\n%s", err, out.String())
	}
	if report.Schema != "qaoabench/suite/v1" {
		t.Errorf("schema = %q", report.Schema)
	}
	want := []string{"forward", "grad", "sweep", "registry_cache_hit",
		"fused_layer",
		"lightcone_energy", "lightcone_grad",
		"distributed_forward", "distributed_grad",
		"distributed_forward_float32", "distributed_grad_float32",
		"distributed_cvar", "distributed_sample"}
	if len(report.Benchmarks) != len(want) {
		t.Fatalf("got %d benchmarks, want %d", len(report.Benchmarks), len(want))
	}
	byName := map[string]suiteBenchmark{}
	for i, name := range want {
		b := report.Benchmarks[i]
		if b.Name != name {
			t.Errorf("benchmark %d = %q, want %q", i, b.Name, name)
		}
		if b.SecondsPerOp <= 0 {
			t.Errorf("%s: non-positive seconds_per_op %v", name, b.SecondsPerOp)
		}
		byName[b.Name] = b
	}

	// The float32 wire format must halve the machine-independent
	// traffic of its float64 counterpart (≤ 0.55× allows no slack in
	// practice — the ratio is exactly 0.5).
	for _, pair := range [][2]string{
		{"distributed_forward_float32", "distributed_forward"},
		{"distributed_grad_float32", "distributed_grad"},
	} {
		f32, f64 := byName[pair[0]], byName[pair[1]]
		if f32.BytesPerRank <= 0 || f64.BytesPerRank <= 0 {
			t.Fatalf("%s/%s: missing bytes_per_rank (%d, %d)", pair[0], pair[1], f32.BytesPerRank, f64.BytesPerRank)
		}
		if ratio := float64(f32.BytesPerRank) / float64(f64.BytesPerRank); ratio > 0.55 {
			t.Errorf("%s moved %d bytes/rank, %.2f× the float64 row's %d (want ≤ 0.55×)",
				pair[0], f32.BytesPerRank, ratio, f64.BytesPerRank)
		}
	}

	// The light-cone rows carry the cone-dedup counter (an explicit 0
	// here — every cone canonicalizes at these sizes) so the baseline
	// gate can fail on any future increase; other rows omit the field.
	for _, name := range []string{"lightcone_energy", "lightcone_grad"} {
		if byName[name].CanonFallbacks == nil {
			t.Errorf("%s: missing canon_fallbacks", name)
		}
	}
	if byName["forward"].CanonFallbacks != nil {
		t.Error("forward row carries canon_fallbacks — the field is light-cone-only")
	}

	// The gather-free output stages are payload-free: CVaR's threshold
	// reduction and the two-stage sampler run on scalar/short-vector
	// all-reduces (accounted as syncs), so each output row's traffic is
	// exactly one forward evolution's.
	for _, name := range []string{"distributed_cvar", "distributed_sample"} {
		if o, f := byName[name], byName["distributed_forward"]; o.BytesPerRank != f.BytesPerRank {
			t.Errorf("%s moved %d bytes/rank, one forward evolution moves %d — the output reductions must not add payload",
				name, o.BytesPerRank, f.BytesPerRank)
		}
	}

	// -out must write the same report shape to disk.
	path := filepath.Join(t.TempDir(), "BENCH_qaoa.json")
	if err := runSuite(io.Discard, []string{"-n", "8", "-p", "2", "-points", "4", "-reps", "1", "-kerneln", "10", "-out", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("-out file is invalid JSON: %v", err)
	}
}

// TestOptDurableSmoke runs `opt -checkpoint`: the durable Adam job
// completes in one invocation, reports as such, and removes its state
// file.
func TestOptDurableSmoke(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "opt.ckpt")
	var out strings.Builder
	if err := runOpt(&out, []string{"-n", "8", "-p", "2", "-evals", "8", "-checkpoint", ckpt}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Durable Adam") {
		t.Errorf("output missing the durable-job header:\n%s", out.String())
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("completed job left its checkpoint behind (stat: %v)", err)
	}
}

func TestRunnersRejectBadFlags(t *testing.T) {
	var out strings.Builder
	if err := runFig2(&out, []string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestLandscapeRejectsDegenerateSizes(t *testing.T) {
	var out strings.Builder
	if err := runLandscape(&out, []string{"-grid", "0"}); err == nil {
		t.Error("landscape accepted -grid 0")
	}
	if err := runLandscape(&out, []string{"-n", "0"}); err == nil {
		t.Error("landscape accepted -n 0")
	}
}

// TestSuiteBaselineGate pins the bench-regression gate: a fresh run
// compared against its own artifact passes; a baseline doctored to
// claim less traffic or much faster timings fails with the offending
// workload named; a config mismatch fails loudly.
func TestSuiteBaselineGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_qaoa.json")
	args := []string{"-n", "8", "-p", "2", "-ranks", "2", "-points", "4", "-reps", "1", "-kerneln", "10"}
	if err := runSuite(io.Discard, append([]string{"-out", base}, args...)); err != nil {
		t.Fatal(err)
	}

	// Self-comparison passes (generous ratio absorbs timing noise — micro-second ops at this size can jitter orders of magnitude under load).
	var out strings.Builder
	if err := runSuite(&out, append([]string{"-baseline", base, "-maxratio", "10000"}, args...)); err != nil {
		t.Fatalf("self-comparison failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Errorf("comparison output missing verdict:\n%s", out.String())
	}

	// Doctored baseline: claim the distributed gradient moved fewer
	// bytes — the fresh (unchanged) run must now read as a traffic
	// regression, deterministically.
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var report suiteReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	for i := range report.Benchmarks {
		if report.Benchmarks[i].BytesPerRank > 0 {
			report.Benchmarks[i].BytesPerRank /= 2
		}
	}
	doctored := filepath.Join(dir, "doctored.json")
	tampered, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(doctored, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	err = runSuite(io.Discard, append([]string{"-baseline", doctored, "-maxratio", "10000"}, args...))
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Errorf("traffic regression not detected: %v", err)
	}

	// Config mismatch (different n) must refuse to compare.
	err = runSuite(io.Discard, []string{"-n", "6", "-p", "2", "-ranks", "2", "-points", "4", "-reps", "1", "-kerneln", "10", "-baseline", base})
	if err == nil || !strings.Contains(err.Error(), "config mismatch") {
		t.Errorf("config mismatch not detected: %v", err)
	}

	// -json with -baseline keeps stdout pure JSON (the comparison's
	// verdict travels through the error only).
	out.Reset()
	if err := runSuite(&out, append([]string{"-json", "-baseline", base, "-maxratio", "10000"}, args...)); err != nil {
		t.Fatalf("json self-comparison failed: %v", err)
	}
	var rep suiteReport
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Errorf("-json -baseline polluted stdout: %v\n%s", err, out.String())
	}
}

// TestSuiteBaselineForwardCompat pins the gate's forward
// compatibility: a fresh run that records workloads and metric keys an
// older baseline lacks (the float32 rows, bytes_per_rank on
// rows written before the key existed) must report those rows without
// gating on the missing data — a phantom zero in the baseline is not a
// regression to beat — and a baseline row the suite no longer records
// is skipped. A truncated (half-written) baseline file must
// fail cleanly, not panic.
func TestSuiteBaselineForwardCompat(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	args := []string{"-n", "8", "-p", "2", "-ranks", "2", "-points", "4", "-reps", "1", "-kerneln", "10"}
	if err := runSuite(io.Discard, append([]string{"-out", full}, args...)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	var report suiteReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}

	// An "old" baseline: drop every per-precision row and strip the
	// traffic and timing metrics from the remaining distributed rows,
	// as a pre-schema-extension file would look.
	old := report
	old.Benchmarks = nil
	for _, b := range report.Benchmarks {
		switch b.Name {
		case "distributed_forward_float32", "distributed_grad_float32":
			continue
		case "distributed_grad":
			b.BytesPerRank = 0 // key absent in the old schema
			b.SecondsPerOp = 0
		}
		old.Benchmarks = append(old.Benchmarks, b)
	}
	// A row the suite no longer records, as BENCH_qaoa.json keeps
	// distributed_grad_quantized and unfused_layer, is skipped, not
	// failed.
	old.Benchmarks = append(old.Benchmarks, suiteBenchmark{Name: "retired_row", N: 8, P: 2, SecondsPerOp: 1})
	oldPath := filepath.Join(dir, "old.json")
	oldData, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oldPath, oldData, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runSuite(&out, append([]string{"-baseline", oldPath, "-maxratio", "10000"}, args...)); err != nil {
		t.Fatalf("fresh run spuriously failed against the older baseline: %v\n%s", err, out.String())
	}
	for _, want := range []string{"new workload, no baseline", "reported, not gated", "present only in baseline", "no regressions"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output missing %q:\n%s", want, out.String())
		}
	}

	// A truncated baseline file errors cleanly instead of panicking.
	truncated := filepath.Join(dir, "truncated.json")
	if err := os.WriteFile(truncated, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	err = runSuite(io.Discard, append([]string{"-baseline", truncated, "-maxratio", "10000"}, args...))
	if err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Errorf("truncated baseline not rejected cleanly: %v", err)
	}
}
