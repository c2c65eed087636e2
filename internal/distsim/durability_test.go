package distsim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"qokit/internal/core"
	"qokit/internal/optimize"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

// killAt builds a fault injector that kills one rank at the call-th
// invocation of op (0-based, per rank), simulating a node failure
// mid-collective.
func killAt(victim int, op string, call int, cause error) func(rank int, gotOp string, gotCall int) error {
	return func(rank int, gotOp string, gotCall int) error {
		if rank == victim && gotOp == op && gotCall == call {
			return cause
		}
		return nil
	}
}

// TestCheckpointKillRestore is the fault-injection matrix for the
// forward pipeline: in every shard representation, a rank killed
// mid-collective must surface a clean error (not deadlock), leave the
// last layer-boundary snapshot on disk, and a restarted run must
// resume from it and finish bit-identical to an uninterrupted run.
func TestCheckpointKillRestore(t *testing.T) {
	n := 6
	ts := problems.MaxCutTerms(mustRing(t, n))
	gamma := []float64{0.35, -0.2, 0.5}
	beta := []float64{0.4, 0.15, -0.3}

	cases := []struct {
		name     string
		opts     Options
		op       string
		victim   int
		call     int
		wantCkpt bool // a snapshot must exist after the kill
	}{
		{"f64-ranks4-alltoall", Options{Ranks: 4}, "Alltoall", 2, 2, true},
		{"f32-ranks4-alltoall32", Options{Ranks: 4, Precision: PrecisionFloat32}, "Alltoall", 1, 2, true},
		{"quant-ranks4-alltoall", Options{Ranks: 4, Quantize: true}, "Alltoall", 3, 2, true},
		{"f64-ranks1-allreduce", Options{Ranks: 1}, "AllreduceSum", 0, 0, true},
		{"f64-ranks4-xy-sendrecv", Options{Ranks: 4, Mixer: core.MixerXYRing}, "Sendrecv", 1, 4, true},
		{"f64-ranks4-capture-barrier", Options{Ranks: 4}, "Barrier", 0, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, err := SimulateQAOA(context.Background(), n, ts, gamma, beta, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "fwd.ckpt")
			ck := CheckpointOptions{Path: path}

			boom := errors.New("node failure")
			killed := tc.opts
			killed.Fault = killAt(tc.victim, tc.op, tc.call, boom)
			if _, err := SimulateQAOACheckpointed(context.Background(), n, ts, gamma, beta, killed, ck); !errors.Is(err, boom) {
				t.Fatalf("killed run returned %v, want the injected fault", err)
			}
			if _, err := os.Stat(path); tc.wantCkpt && err != nil {
				t.Fatalf("no snapshot on disk after the kill: %v", err)
			}

			res, err := SimulateQAOACheckpointed(context.Background(), n, ts, gamma, beta, tc.opts, ck)
			if err != nil {
				t.Fatalf("resumed run failed: %v", err)
			}
			if res.Expectation != base.Expectation || res.Overlap != base.Overlap || res.MinCost != base.MinCost {
				t.Errorf("resumed run differs from uninterrupted: (%v, %v, %v) vs (%v, %v, %v)",
					res.Expectation, res.Overlap, res.MinCost,
					base.Expectation, base.Overlap, base.MinCost)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("completed run left the checkpoint behind (stat: %v)", err)
			}
		})
	}
}

// TestCheckpointCompatMismatch proves a snapshot never resumes a run
// it does not describe: the diverging field is named and nothing is
// computed.
func TestCheckpointCompatMismatch(t *testing.T) {
	n := 6
	ts := problems.MaxCutTerms(mustRing(t, n))
	gamma := []float64{0.35, -0.2, 0.5}
	beta := []float64{0.4, 0.15, -0.3}
	path := filepath.Join(t.TempDir(), "fwd.ckpt")
	ck := CheckpointOptions{Path: path}

	// Leave a ranks=2 float64 snapshot on disk via an injected kill.
	boom := errors.New("node failure")
	killed := Options{Ranks: 2, Fault: killAt(0, "Alltoall", 2, boom)}
	if _, err := SimulateQAOACheckpointed(context.Background(), n, ts, gamma, beta, killed, ck); !errors.Is(err, boom) {
		t.Fatalf("killed run returned %v, want the injected fault", err)
	}

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"ranks", Options{Ranks: 4}},
		{"precision", Options{Ranks: 2, Precision: PrecisionFloat32}},
		{"quantize", Options{Ranks: 2, Quantize: true}},
		{"mixer", Options{Ranks: 2, Mixer: core.MixerXYRing}},
	} {
		if _, err := SimulateQAOACheckpointed(context.Background(), n, ts, gamma, beta, tc.opts, ck); err == nil {
			t.Errorf("%s mismatch: resumed without error", tc.name)
		}
	}
	// A run over a different angle trajectory must refuse the snapshot:
	// its shards were evolved under other layers.
	offTrajectory := append([]float64(nil), gamma...)
	offTrajectory[0] += 1e-9
	if _, err := SimulateQAOACheckpointed(context.Background(), n, ts, offTrajectory, beta, Options{Ranks: 2}, ck); err == nil {
		t.Error("trajectory mismatch: resumed without error")
	}

	// Depth shallower than the snapshot's layer must also refuse. The
	// AllreduceSum kill leaves a snapshot at the final (third) layer.
	path2 := filepath.Join(t.TempDir(), "deep.ckpt")
	killed = Options{Ranks: 2, Fault: killAt(0, "AllreduceSum", 0, boom)}
	if _, err := SimulateQAOACheckpointed(context.Background(), n, ts, gamma, beta, killed, CheckpointOptions{Path: path2}); !errors.Is(err, boom) {
		t.Fatalf("killed run returned %v, want the injected fault", err)
	}
	if _, err := SimulateQAOACheckpointed(context.Background(), n, ts, gamma[:1], beta[:1], Options{Ranks: 2}, CheckpointOptions{Path: path2}); err == nil {
		t.Error("depth mismatch: resumed without error")
	}
}

// TestShardSnapshotRoundTrip round-trips both amplitude
// representations bitwise and rejects truncated payloads.
func TestShardSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	f64 := &ShardSnapshot{
		N: 4, Ranks: 2, Mixer: core.MixerX,
		HammingWeight: 2, Layer: 1,
		GammaPrefix: []float64{0.3}, BetaPrefix: []float64{-0.7},
		Shards: []statevec.Vec{
			{complex(0.5, -0.25), complex(-0.125, 0.75), 0, complex(1, 0), 0, 0, 0, 0},
			{0, 0, complex(0.0625, -1), 0, 0, 0, complex(-0.5, 0.5), 0},
		},
	}
	if err := SaveShardSnapshot(path, f64); err != nil {
		t.Fatal(err)
	}
	got, err := LoadShardSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != f64.N || got.Ranks != f64.Ranks || got.Layer != f64.Layer || got.HammingWeight != f64.HammingWeight {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	for r := range f64.Shards {
		for i := range f64.Shards[r] {
			if got.Shards[r][i] != f64.Shards[r][i] {
				t.Fatalf("rank %d amplitude %d: %v != %v", r, i, got.Shards[r][i], f64.Shards[r][i])
			}
		}
	}

	f32 := &ShardSnapshot{
		N: 4, Ranks: 2, Mixer: core.MixerX,
		HammingWeight: 2, Precision: PrecisionFloat32, Layer: 2,
		GammaPrefix: []float64{0.3, 0.1}, BetaPrefix: []float64{-0.7, 0.2},
		Re: [][]float32{{1, 0, -0.5, 0, 0, 0, 0, 0.25}, {0, 0.125, 0, 0, 0, 0, 0, 0}},
		Im: [][]float32{{0, -1, 0, 0, 0.5, 0, 0, 0}, {0, 0, 0, 0.75, 0, 0, 0, 0}},
	}
	if err := SaveShardSnapshot(path, f32); err != nil {
		t.Fatal(err)
	}
	if got, err = LoadShardSnapshot(path); err != nil {
		t.Fatal(err)
	}
	for r := range f32.Re {
		for i := range f32.Re[r] {
			if got.Re[r][i] != f32.Re[r][i] || got.Im[r][i] != f32.Im[r][i] {
				t.Fatalf("rank %d amplitude %d differs after round trip", r, i)
			}
		}
	}

	// Every truncation of the payload must be rejected.
	payload := f64.Encode()
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeShardSnapshot(payload[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
}

// TestShardedAdamResumeBitIdentical is the golden durability test: a
// sharded Adam trajectory killed by a fault injector mid-gradient and
// resumed from its last optimizer checkpoint must land on the exact
// bit pattern the uninterrupted run produces — every rank count, every
// shard representation.
func TestShardedAdamResumeBitIdentical(t *testing.T) {
	n := 6
	ts := problems.MaxCutTerms(mustRing(t, n))
	x0 := []float64{0.4, -0.25, 0.2, 0.35} // p=2 flat [γ, β]
	const maxIter = 8
	const killCall = 5 // kill the 6th gradient all-reduce

	run := func(t *testing.T, opts Options, path string, resume bool) optimize.AdamResult {
		eng, err := NewGradEngine(n, ts, opts)
		if err != nil {
			t.Fatal(err)
		}
		var simErr error
		obj := eng.FlatObjective(context.Background(), &simErr)
		opt := optimize.AdamOptions{MaxIter: maxIter, Step: 0.08, TolGrad: 1e-12}
		if path != "" {
			if resume {
				st, err := optimize.LoadAdamState(path)
				if err != nil {
					t.Fatalf("loading optimizer checkpoint: %v", err)
				}
				opt.Resume = st
			}
			opt.Checkpoint = func(st *optimize.AdamState) error {
				if simErr != nil {
					return simErr // stop instead of iterating on garbage
				}
				return optimize.SaveAdamState(path, st)
			}
		}
		res := optimize.Adam(obj, x0, opt)
		if simErr != nil && res.Err == nil {
			t.Fatalf("objective failed (%v) but the run did not stop", simErr)
		}
		return res
	}

	for _, ranks := range []int{1, 2, 4} {
		for _, rep := range []struct {
			name string
			opts Options
		}{
			{"float64", Options{}},
			{"float32", Options{Precision: PrecisionFloat32}},
			{"quantized", Options{Quantize: true}},
		} {
			t.Run(fmt.Sprintf("ranks%d-%s", ranks, rep.name), func(t *testing.T) {
				opts := rep.opts
				opts.Ranks = ranks
				full := run(t, opts, "", false)
				if full.Err != nil {
					t.Fatalf("uninterrupted run: %v", full.Err)
				}
				if full.Evals != maxIter {
					t.Fatalf("uninterrupted run used %d evals, want %d", full.Evals, maxIter)
				}

				path := filepath.Join(t.TempDir(), "adam.ckpt")
				boom := errors.New("node failure")
				killed := opts
				killed.Fault = killAt(ranks-1, "AllreduceSumVec", killCall, boom)
				if res := run(t, killed, path, false); !errors.Is(res.Err, boom) {
					t.Fatalf("killed run stopped with %v, want the injected fault", res.Err)
				}

				res := run(t, opts, path, true)
				if res.Err != nil {
					t.Fatalf("resumed run: %v", res.Err)
				}
				if res.F != full.F || res.Iters != full.Iters || res.Evals != full.Evals {
					t.Fatalf("resumed (F=%v, iters=%d, evals=%d) != uninterrupted (F=%v, iters=%d, evals=%d)",
						res.F, res.Iters, res.Evals, full.F, full.Iters, full.Evals)
				}
				for i := range res.X {
					if res.X[i] != full.X[i] {
						t.Fatalf("resumed X[%d]=%v differs from uninterrupted %v (not bit-identical)",
							i, res.X[i], full.X[i])
					}
				}
			})
		}
	}
}
