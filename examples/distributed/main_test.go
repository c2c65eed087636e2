package main

import (
	"strings"
	"testing"
)

// TestRun smoke-tests the example at a reduced size: clean exit plus
// the expected report markers. The example itself verifies every
// distributed configuration against the single-node expectation and
// returns an error on deviation, so a clean exit is the equivalence
// check.
func TestRun(t *testing.T) {
	defer func(n, p int, r []int, ok, ai int) {
		nQubits, depth, rankSet, optRanks, adamIters = n, p, r, ok, ai
	}(nQubits, depth, rankSet, optRanks, adamIters)
	nQubits, depth, rankSet, optRanks, adamIters = 8, 2, []int{1, 2, 4}, 4, 12

	var sb strings.Builder
	if err := run(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, marker := range []string{
		"LABS n=8 p=2 — single-node expectation",
		"bytes/rank",
		"Every configuration reproduces the single-node expectation exactly.",
		"Distributed adjoint gradient (K=4)",
		"§V-B shard representations (K=4)",
		"float64 (baseline)",
		"float32 state + wire",
		"Distributed Adam (K=4",
		"optimized  E =",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("output missing %q\n---\n%s", marker, out)
		}
	}
}
