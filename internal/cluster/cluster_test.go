package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// checkAlltoallSemantics: each rank r fills subchunk s with value
// 100r+s in re and the element index in im; after the all-to-all rank
// r's subchunk s must hold 100s+r.
func checkAlltoallSemantics[T Elem](t *testing.T) {
	for _, algo := range []AlltoallAlgo{Pairwise, Transpose} {
		for _, k := range []int{1, 2, 4, 8} {
			g, err := NewGroup(k, algo)
			if err != nil {
				t.Fatal(err)
			}
			sub := 3
			if algo == Pairwise {
				sub = 4 // keep lengths divisible for every k
			}
			err = g.Run(func(c *Comm) error {
				re, im := make([]T, k*sub), make([]T, k*sub)
				for s := 0; s < k; s++ {
					for i := 0; i < sub; i++ {
						re[s*sub+i], im[s*sub+i] = T(100*c.Rank()+s), T(i)
					}
				}
				if err := Alltoall(c, re, im); err != nil {
					return err
				}
				for s := 0; s < k; s++ {
					for i := 0; i < sub; i++ {
						if re[s*sub+i] != T(100*s+c.Rank()) || im[s*sub+i] != T(i) {
							return fmt.Errorf("rank %d subchunk %d elem %d: got (%v, %v)", c.Rank(), s, i, re[s*sub+i], im[s*sub+i])
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%T %v k=%d: %v", T(0), algo, k, err)
			}
		}
	}
}

func TestAlltoallSemantics(t *testing.T) {
	checkAlltoallSemantics[float64](t)
}

func TestAlltoall32Semantics(t *testing.T) {
	checkAlltoallSemantics[float32](t)
}

func checkAlltoallIsInvolution[T Elem](t *testing.T) {
	for _, algo := range []AlltoallAlgo{Pairwise, Transpose} {
		for _, k := range []int{1, 2, 4, 8} {
			g, err := NewGroup(k, algo)
			if err != nil {
				t.Fatal(err)
			}
			err = g.Run(func(c *Comm) error {
				re, im := make([]T, 2*k), make([]T, 2*k)
				for i := range re {
					re[i], im[i] = T(c.Rank()*2*k+i), -T(i)
				}
				origRe, origIm := append([]T(nil), re...), append([]T(nil), im...)
				for pass := 0; pass < 2; pass++ {
					if err := Alltoall(c, re, im); err != nil {
						return err
					}
				}
				for i := range re {
					if re[i] != origRe[i] || im[i] != origIm[i] {
						return fmt.Errorf("rank %d: double all-to-all changed element %d", c.Rank(), i)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%T %v k=%d: %v", T(0), algo, k, err)
			}
		}
	}
}

func TestAlltoallIsInvolution(t *testing.T) {
	checkAlltoallIsInvolution[float64](t)
	checkAlltoallIsInvolution[float32](t)
}

func TestAlltoallErrors(t *testing.T) {
	g, _ := NewGroup(3, Pairwise)
	err := g.Run(func(c *Comm) error {
		return Alltoall(c, make([]float64, 6), make([]float64, 6))
	})
	if err == nil {
		t.Error("pairwise with non-power-of-two ranks accepted")
	}
	g2, _ := NewGroup(2, Transpose)
	err = g2.Run(func(c *Comm) error {
		return Alltoall(c, make([]float64, 3), make([]float64, 3))
	})
	if err == nil {
		t.Error("indivisible buffer accepted")
	}
	if _, err := NewGroup(0, Transpose); err == nil {
		t.Error("empty group accepted")
	}
}

func TestAllreduceSumAndMin(t *testing.T) {
	g, err := NewGroup(5, Transpose)
	if err != nil {
		t.Fatal(err)
	}
	err = g.Run(func(c *Comm) error {
		x := float64(c.Rank() + 1)
		if got, err := c.AllreduceSum(x); err != nil || got != 15 {
			return fmt.Errorf("rank %d: sum %v (err %v), want 15", c.Rank(), got, err)
		}
		if got, err := c.AllreduceMin(-x); err != nil || got != -5 {
			return fmt.Errorf("rank %d: min %v (err %v), want -5", c.Rank(), got, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGather(t *testing.T) {
	g, err := NewGroup(3, Transpose)
	if err != nil {
		t.Fatal(err)
	}
	err = g.Run(func(c *Comm) error {
		local := []complex128{complex(float64(c.Rank()), 0), complex(float64(c.Rank()), 1)}
		full, err := c.AllGather(local)
		if err != nil {
			return err
		}
		if len(full) != 6 {
			return fmt.Errorf("gathered %d elements", len(full))
		}
		for r := 0; r < 3; r++ {
			if real(full[2*r]) != float64(r) {
				return fmt.Errorf("rank %d: gathered order wrong at %d", c.Rank(), r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	g, err := NewGroup(4, Transpose)
	if err != nil {
		t.Fatal(err)
	}
	var phase atomic.Int64
	err = g.Run(func(c *Comm) error {
		phase.Add(1)
		if err := c.Barrier(); err != nil {
			return err
		}
		if got := phase.Load(); got != 4 {
			return fmt.Errorf("rank %d passed barrier with phase %d", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCountersAccumulate(t *testing.T) {
	for _, algo := range []AlltoallAlgo{Pairwise, Transpose} {
		g, err := NewGroup(4, algo)
		if err != nil {
			t.Fatal(err)
		}
		err = g.Run(func(c *Comm) error {
			return Alltoall(c, make([]float64, 16), make([]float64, 16))
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 4; r++ {
			ctr := g.Counters(r)
			// Each rank sends 3 remote subchunks of 4 amplitudes = 192 B.
			if ctr.BytesSent != 3*4*16 {
				t.Errorf("%v rank %d: bytes %d, want 192", algo, r, ctr.BytesSent)
			}
			if ctr.Messages != 3 {
				t.Errorf("%v rank %d: messages %d, want 3", algo, r, ctr.Messages)
			}
			if ctr.Syncs == 0 {
				t.Errorf("%v rank %d: no syncs recorded", algo, r)
			}
		}
		if tot := g.TotalCounters(); tot.BytesSent != 4*192 {
			t.Errorf("%v: total bytes %d, want 768", algo, tot.BytesSent)
		}
	}
}

func TestPairwiseCostsMoreSyncs(t *testing.T) {
	// The structural reason transpose wins in Fig. 5: pairwise pays
	// ~2(K−1) synchronizations per all-to-all, transpose pays 2.
	syncs := map[AlltoallAlgo]int64{}
	for _, algo := range []AlltoallAlgo{Pairwise, Transpose} {
		g, _ := NewGroup(8, algo)
		if err := g.Run(func(c *Comm) error { return Alltoall(c, make([]float64, 64), make([]float64, 64)) }); err != nil {
			t.Fatal(err)
		}
		syncs[algo] = g.Counters(0).Syncs
	}
	if syncs[Pairwise] <= syncs[Transpose] {
		t.Errorf("pairwise syncs %d not greater than transpose %d", syncs[Pairwise], syncs[Transpose])
	}
}

func TestModeledTime(t *testing.T) {
	m := NetworkModel{LatencyPerMsg: time.Microsecond, BytesPerSec: 1e9, SyncLatency: time.Nanosecond}
	c := Counters{BytesSent: 1e9, Messages: 10, Syncs: 5}
	got := c.ModeledTime(m)
	want := 10*time.Microsecond + time.Second + 5*time.Nanosecond
	if got != want {
		t.Errorf("ModeledTime = %v, want %v", got, want)
	}
	if d := DefaultNetworkModel(); d.BytesPerSec <= 0 || d.LatencyPerMsg <= 0 || d.SyncLatency <= 0 {
		t.Error("default model must be positive")
	}
	mLat := NetworkModel{LatencyPerMsg: time.Millisecond}
	if got := (Counters{Messages: 3}).ModeledTime(mLat); got != 3*time.Millisecond {
		t.Errorf("latency-only model = %v", got)
	}
	// The sync term separates the algorithms at equal volume.
	pairwise := Counters{BytesSent: 100, Messages: 7, Syncs: 15}
	transpose := Counters{BytesSent: 100, Messages: 7, Syncs: 2}
	dm := DefaultNetworkModel()
	if pairwise.ModeledTime(dm) <= transpose.ModeledTime(dm) {
		t.Error("modeled time must penalize extra synchronization rounds")
	}
}

func TestRunPropagatesError(t *testing.T) {
	g, _ := NewGroup(2, Transpose)
	sentinel := fmt.Errorf("boom")
	err := g.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Errorf("Run error = %v, want sentinel", err)
	}
}

func TestGroupSizeOne(t *testing.T) {
	// K=1 is a degenerate but valid group: all collectives are no-ops.
	g, err := NewGroup(1, Pairwise)
	if err != nil {
		t.Fatal(err)
	}
	err = g.Run(func(c *Comm) error {
		re, im := []float64{1, 2}, []float64{3, 4}
		if err := Alltoall(c, re, im); err != nil {
			return err
		}
		if re[0] != 1 || re[1] != 2 || im[0] != 3 || im[1] != 4 {
			return fmt.Errorf("K=1 all-to-all changed data")
		}
		if s, err := c.AllreduceSum(3.5); err != nil || s != 3.5 {
			return fmt.Errorf("K=1 sum %v (err %v)", s, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(g.Counters(0).BytesSent)) != 0 {
		t.Error("K=1 sent bytes")
	}
}

func TestAllreduceSumVec(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		g, err := NewGroup(k, Transpose)
		if err != nil {
			t.Fatal(err)
		}
		dim := 5
		err = g.Run(func(c *Comm) error {
			x := make([]float64, dim)
			for i := range x {
				x[i] = float64((c.Rank() + 1) * (i + 1))
			}
			if err := c.AllreduceSumVec(x); err != nil {
				return err
			}
			// Σ_r (r+1)(i+1) = (i+1)·k(k+1)/2 on every rank.
			for i := range x {
				want := float64((i + 1) * k * (k + 1) / 2)
				if x[i] != want {
					return fmt.Errorf("K=%d rank %d: x[%d]=%v, want %v", k, c.Rank(), i, x[i], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if b := g.TotalCounters().BytesSent; b != 0 {
			t.Errorf("K=%d: vector all-reduce counted %d payload bytes; reductions are sync-only", k, b)
		}
	}
}

func TestAllreduceSumVecRepeatedCalls(t *testing.T) {
	// The scratch buffers must not leak state between collectives.
	g, _ := NewGroup(4, Transpose)
	err := g.Run(func(c *Comm) error {
		for iter := 0; iter < 3; iter++ {
			x := []float64{float64(c.Rank()), 1}
			if err := c.AllreduceSumVec(x); err != nil {
				return err
			}
			if x[0] != 6 || x[1] != 4 {
				return fmt.Errorf("iter %d rank %d: got %v", iter, c.Rank(), x)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvPairs(t *testing.T) {
	// Ranks pair as r ↔ r^1: each receives the partner's payload.
	g, _ := NewGroup(4, Transpose)
	err := g.Run(func(c *Comm) error {
		re, im := []float64{float64(c.Rank()), 0}, []float64{0, float64(c.Rank())}
		recvRe, recvIm := make([]float64, 2), make([]float64, 2)
		if err := Sendrecv(c, c.Rank()^1, re, im, recvRe, recvIm); err != nil {
			return err
		}
		want := float64(c.Rank() ^ 1)
		if recvRe[0] != want || recvRe[1] != 0 || recvIm[0] != 0 || recvIm[1] != want {
			return fmt.Errorf("rank %d received (%v, %v)", c.Rank(), recvRe, recvIm)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := g.TotalCounters()
	if total.Messages != 4 || total.BytesSent != 4*2*16 {
		t.Errorf("counters = %+v, want 4 messages / %d bytes", total, 4*2*16)
	}
}

func TestSendrecvIdleRanks(t *testing.T) {
	// Ranks 0,3 exchange; 1,2 sit out (partner −1) but synchronize.
	g, _ := NewGroup(4, Transpose)
	err := g.Run(func(c *Comm) error {
		partner := -1
		switch c.Rank() {
		case 0:
			partner = 3
		case 3:
			partner = 0
		}
		re, im := []float64{float64(c.Rank())}, []float64{0}
		recvRe, recvIm := make([]float64, 1), make([]float64, 1)
		if err := Sendrecv(c, partner, re, im, recvRe, recvIm); err != nil {
			return err
		}
		if partner >= 0 && recvRe[0] != float64(partner) {
			return fmt.Errorf("rank %d received %v", c.Rank(), recvRe[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Counters(1).Messages != 0 || g.Counters(1).BytesSent != 0 {
		t.Errorf("idle rank counted traffic: %+v", g.Counters(1))
	}
	if g.Counters(0).Messages != 1 {
		t.Errorf("active rank counters: %+v", g.Counters(0))
	}
	if g.Counters(1).Syncs != 2 {
		t.Errorf("idle rank syncs = %d, want 2", g.Counters(1).Syncs)
	}
}

func TestSendrecvSelfIsNoop(t *testing.T) {
	g, _ := NewGroup(2, Transpose)
	err := g.Run(func(c *Comm) error {
		re, im := []float64{float64(c.Rank())}, []float64{0}
		recvRe, recvIm := []float64{42}, []float64{42}
		if err := Sendrecv(c, c.Rank(), re, im, recvRe, recvIm); err != nil {
			return err
		}
		if recvRe[0] != 42 || recvIm[0] != 42 {
			return fmt.Errorf("self exchange wrote recv: (%v, %v)", recvRe[0], recvIm[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalCounters().Messages != 0 {
		t.Error("self exchange counted a message")
	}
}

// TestRunContextCancellation is the cancellation contract of the
// substrate: cancelling the context mid-collective releases every rank
// (no deadlock at the barrier), RunContext reports ctx.Err(), and the
// poisoned group refuses further runs.
func TestRunContextCancellation(t *testing.T) {
	g, err := NewGroup(4, Transpose)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var entered atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- g.RunContext(ctx, func(c *Comm) error {
			re, im := make([]float64, 8), make([]float64, 8)
			for {
				// Rank 3 never joins the second collective, so without
				// poisoning the peers would block forever.
				if c.Rank() == 3 && entered.Load() >= 4 {
					<-ctx.Done()
					return ctx.Err()
				}
				entered.Add(1)
				if err := Alltoall(c, re, im); err != nil {
					return err
				}
			}
		})
	}()
	for entered.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("RunContext returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled group deadlocked")
	}
	// The group is permanently dead.
	if err := g.Run(func(c *Comm) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("aborted group ran again: %v", err)
	}
}

// TestRunContextPreCancelled: a context that is already cancelled must
// fail fast without launching ranks or poisoning the group.
func TestRunContextPreCancelled(t *testing.T) {
	g, _ := NewGroup(2, Transpose)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.RunContext(ctx, func(c *Comm) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled RunContext returned %v", err)
	}
	// The group was not poisoned: a normal run still works.
	if err := g.Run(func(c *Comm) error { return c.Barrier() }); err != nil {
		t.Errorf("group unusable after pre-cancelled run: %v", err)
	}
}

// TestAbortReleasesBlockedCollectives covers every collective kind:
// ranks parked in scalar reductions, gathers, and barriers all unwind
// with ErrAborted when the group is aborted explicitly.
func TestAbortReleasesBlockedCollectives(t *testing.T) {
	g, _ := NewGroup(4, Transpose)
	done := make(chan error, 1)
	go func() {
		done <- g.Run(func(c *Comm) error {
			switch c.Rank() {
			case 0:
				_, err := c.AllreduceSum(1)
				return err
			case 1:
				_, err := c.AllreduceMin(1)
				return err
			case 2:
				_, err := c.AllGather([]complex128{1})
				return err
			default:
				// Rank 3 aborts instead of joining, stranding the rest.
				time.Sleep(10 * time.Millisecond)
				g.Abort(nil)
				return nil
			}
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrAborted) {
			t.Errorf("aborted collectives returned %v, want ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not release blocked collectives")
	}
}

func TestSendrecvBadPartnerDoesNotStrand(t *testing.T) {
	// One rank naming an out-of-range partner must surface an error
	// through Run, not deadlock the peers at the barrier.
	g, _ := NewGroup(4, Transpose)
	done := make(chan error, 1)
	go func() {
		done <- g.Run(func(c *Comm) error {
			partner := c.Rank() ^ 1
			if c.Rank() == 0 {
				partner = 99
			}
			buf := []float64{1}
			return Sendrecv(c, partner, buf, buf, make([]float64, 1), make([]float64, 1))
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("out-of-range partner accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("group deadlocked on invalid partner")
	}
}

func TestAllreduceMax(t *testing.T) {
	g, err := NewGroup(5, Transpose)
	if err != nil {
		t.Fatal(err)
	}
	err = g.Run(func(c *Comm) error {
		x := float64(c.Rank() + 1)
		if got, err := c.AllreduceMax(x); err != nil || got != 5 {
			return fmt.Errorf("rank %d: max %v (err %v), want 5", c.Rank(), got, err)
		}
		if got, err := c.AllreduceMax(-x); err != nil || got != -1 {
			return fmt.Errorf("rank %d: max %v (err %v), want -1", c.Rank(), got, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall32HalvesBytes(t *testing.T) {
	// The float32 planes move exactly half the bytes of the float64
	// exchange at identical message and sync counts — the counter
	// contract the distributed float32 shards rely on.
	for _, algo := range []AlltoallAlgo{Pairwise, Transpose} {
		const k, sub = 4, 8
		g64, _ := NewGroup(k, algo)
		if err := g64.Run(func(c *Comm) error {
			return Alltoall(c, make([]float64, k*sub), make([]float64, k*sub))
		}); err != nil {
			t.Fatal(err)
		}
		g32, _ := NewGroup(k, algo)
		if err := g32.Run(func(c *Comm) error {
			return Alltoall(c, make([]float32, k*sub), make([]float32, k*sub))
		}); err != nil {
			t.Fatal(err)
		}
		c64, c32 := g64.TotalCounters(), g32.TotalCounters()
		if 2*c32.BytesSent != c64.BytesSent {
			t.Errorf("%v: float32 moved %d bytes, float64 %d — want exactly half", algo, c32.BytesSent, c64.BytesSent)
		}
		if c32.Messages != c64.Messages || c32.Syncs != c64.Syncs {
			t.Errorf("%v: float32 (%d msgs, %d syncs) vs float64 (%d msgs, %d syncs) — want identical",
				algo, c32.Messages, c32.Syncs, c64.Messages, c64.Syncs)
		}
	}
}

func TestAlltoall32Errors(t *testing.T) {
	g, _ := NewGroup(2, Transpose)
	if err := g.Run(func(c *Comm) error {
		return Alltoall(c, make([]float32, 4), make([]float32, 6))
	}); err == nil {
		t.Error("mismatched component lengths accepted")
	}
	g2, _ := NewGroup(2, Transpose)
	if err := g2.Run(func(c *Comm) error {
		return Alltoall(c, make([]float32, 3), make([]float32, 3))
	}); err == nil {
		t.Error("indivisible buffer accepted")
	}
}

func TestSendrecv32Pairs(t *testing.T) {
	// Ranks pair up r ↔ r^1 and exchange split slices; each must read
	// its partner's values, and bytes are 8 per amplitude.
	g, err := NewGroup(4, Transpose)
	if err != nil {
		t.Fatal(err)
	}
	const size = 6
	err = g.Run(func(c *Comm) error {
		re := make([]float32, size)
		im := make([]float32, size)
		for i := range re {
			re[i] = float32(10*c.Rank() + i)
			im[i] = -float32(c.Rank())
		}
		recvRe := make([]float32, size)
		recvIm := make([]float32, size)
		partner := c.Rank() ^ 1
		if err := Sendrecv(c, partner, re, im, recvRe, recvIm); err != nil {
			return err
		}
		for i := range recvRe {
			if recvRe[i] != float32(10*partner+i) || recvIm[i] != -float32(partner) {
				return fmt.Errorf("rank %d elem %d: got (%v, %v)", c.Rank(), i, recvRe[i], recvIm[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := g.TotalCounters()
	if want := int64(4 * size * 8); total.BytesSent != want {
		t.Errorf("exchange moved %d bytes, want %d (8 per amplitude)", total.BytesSent, want)
	}
}

func TestSendrecv32IdleAndErrors(t *testing.T) {
	// Idle ranks (partner < 0) synchronize without moving data; a
	// mismatched receive pair or out-of-range partner errors without
	// stranding the peers.
	g, _ := NewGroup(2, Transpose)
	err := g.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return Sendrecv[float32](c, -1, nil, nil, nil, nil)
		}
		return Sendrecv(c, -1, make([]float32, 2), make([]float32, 2), nil, nil)
	})
	if err != nil {
		t.Fatalf("idle exchange failed: %v", err)
	}
	g2, _ := NewGroup(2, Transpose)
	err = g2.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return Sendrecv(c, 1, make([]float32, 2), make([]float32, 2), make([]float32, 2), make([]float32, 3))
		}
		return Sendrecv[float32](c, -1, nil, nil, nil, nil)
	})
	if err == nil {
		t.Error("mismatched receive component lengths accepted")
	}
	g3, _ := NewGroup(2, Transpose)
	err = g3.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return Sendrecv(c, 7, make([]float32, 2), make([]float32, 2), make([]float32, 2), make([]float32, 2))
		}
		return Sendrecv[float32](c, -1, nil, nil, nil, nil)
	})
	if err == nil {
		t.Error("out-of-range partner accepted")
	}
	// A mismatched *send* pair must surface as an error on both sides
	// — never as a slice-bounds panic in the partner's goroutine
	// reading the short component.
	g4, _ := NewGroup(2, Transpose)
	err = g4.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return Sendrecv(c, 1, make([]float32, 4), make([]float32, 2), make([]float32, 4), make([]float32, 4))
		}
		return Sendrecv(c, 0, make([]float32, 4), make([]float32, 4), make([]float32, 4), make([]float32, 4))
	})
	if err == nil {
		t.Error("mismatched send component lengths accepted")
	}
}
