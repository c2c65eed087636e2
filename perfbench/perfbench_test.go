package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run starts its --setup-only processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-only" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsSmoke runs every workload at test size, untraced and
// traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json names, with their units, and that the output checks
// ran and passed. Workloads BENCHMARK.json leaves out run too.
func TestWorkloadsSmoke(t *testing.T) {
	spec := readBenchSpec(t)
	for _, wl := range spec.Workloads {
		if _, ok := lookupWorkload(wl.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not define", wl.Name)
		}
	}
	for _, def := range workloadDefs {
		for _, trace := range []string{"0", "1"} {
			name, trace := def.name, trace
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", trace,
					"--tiny", "--spans-dir", t.TempDir()}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, errb.String(), out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				checks := strings.Count(out.String(), "\ncheck ")
				if checks == 0 || strings.Contains(out.String(), "FAILED") {
					t.Errorf("%d output checks ran, want ≥ 1 and none failed:\n%s", checks, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted <= int64(checks) {
					t.Errorf("correct=%t failed=%d attempted=%d (checks %d)", res.Correct, res.Failed, res.Attempted, checks)
				}
			})
		}
	}
}

// TestSelfTime pins the self-time arithmetic on a hand-built tree:
// overlapping children count once, a child sticking out of its parent
// counts only inside it, and grandchildren do not reach the root.
func TestSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120},
		{Name: "a1", ID: 5, Parent: 2, Start: 15, End: 20},
		{Name: "a2", ID: 6, Parent: 2, Start: 18, End: 25},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 40, 2: 20, 3: 30, 4: 30, 5: 5, 6: 7}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
}
