package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestSolverSmoke runs the end-to-end solver on every problem family
// at tiny sizes; the CLI is a deliverable and gets tested like one.
// The distributed cases run the whole solve on the sharded backend —
// including the xy-mixer portfolio, float32 shards and coded diagonal
// slices, which the gather-free output path made servable.
func TestSolverSmoke(t *testing.T) {
	cases := []struct {
		name string
		call func() error
	}{
		{"labs", func() error { return run("labs", 8, 2, 3, 3, 20, 0, 1, 30, "soa", 0, "float64", "") }},
		{"maxcut", func() error { return run("maxcut", 8, 2, 3, 3, 20, 0, 1, 30, "serial", 0, "float64", "") }},
		{"sat", func() error { return run("sat", 8, 2, 3, 3, 20, 0, 1, 30, "parallel", 0, "float64", "") }},
		{"portfolio", func() error { return run("portfolio", 8, 2, 3, 3, 20, 3, 1, 30, "auto", 0, "float64", "") }},
		{"distributed", func() error { return run("labs", 8, 2, 3, 3, 20, 0, 1, 30, "auto", 2, "float64", "") }},
		// 3-regular MaxCut n = 10 at K = 2: each rank's half slice is an
		// exact grid within the table bound, so it holds uint16 codes only.
		{"distributed-quantized", func() error { return run("maxcut", 10, 2, 3, 3, 20, 0, 1, 30, "auto", 2, "float64", "") }},
		{"distributed-float32", func() error { return run("labs", 8, 2, 3, 3, 20, 0, 1, 30, "auto", 2, "float32", "") }},
		{"distributed-portfolio", func() error { return run("portfolio", 8, 2, 3, 3, 20, 4, 1, 30, "auto", 2, "float64", "") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSolverDurableSmoke runs the -checkpoint path end to end on both
// the single-node service and the sharded backend: the durable Adam
// job completes in one invocation and removes its state file.
func TestSolverDurableSmoke(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "job.ckpt")
	if err := run("labs", 8, 2, 3, 3, 20, 0, 1, 10, "soa", 0, "float64", ckpt); err != nil {
		t.Fatalf("single-node durable solve: %v", err)
	}
	if err := run("labs", 8, 2, 3, 3, 20, 0, 1, 10, "auto", 2, "float64", ckpt); err != nil {
		t.Fatalf("distributed durable solve: %v", err)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("completed solve left its checkpoint behind (stat: %v)", err)
	}
}

func TestSolverErrors(t *testing.T) {
	if err := run("unknown-problem", 8, 2, 3, 3, 20, 0, 1, 30, "auto", 0, "float64", ""); err == nil {
		t.Error("unknown problem accepted")
	}
	if err := run("labs", 8, 2, 3, 3, 20, 0, 1, 30, "not-a-backend", 0, "float64", ""); err == nil {
		t.Error("unknown backend accepted")
	}
	if err := run("labs", 8, 2, 3, 3, 20, 0, 1, 30, "auto", 2, "not-a-precision", ""); err == nil {
		t.Error("unknown distributed precision accepted")
	}
}
