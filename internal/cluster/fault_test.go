package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestAbortFirstCauseSticky is the regression test for the root-cause
// reporting race: when two ranks abort concurrently with distinct
// causes, Run must report the FIRST cause (the root error), not
// whichever failing rank happens to have the lowest id. The schedule is
// forced: rank 1 aborts with causeA, then signals rank 0, which aborts
// with causeB and returns it — so errs[0] (what a rank-order scan would
// report) holds the secondary cause while the latched root cause is A.
func TestAbortFirstCauseSticky(t *testing.T) {
	causeA := errors.New("root cause: rank 1 lost its shard")
	causeB := errors.New("secondary: rank 0 gave up afterwards")

	g, err := NewGroup(2, Transpose)
	if err != nil {
		t.Fatal(err)
	}
	firstDone := make(chan struct{})
	err = g.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			c.Abort(causeA)
			close(firstDone)
			return causeA
		}
		<-firstDone
		c.Abort(causeB)
		return causeB
	})
	if !errors.Is(err, causeA) {
		t.Fatalf("Run returned %v, want the first abort cause %v", err, causeA)
	}

	// The latched cause must also be immutable after the fact.
	if got := g.aborted(); !errors.Is(got, causeA) {
		t.Fatalf("latched cause = %v, want %v", got, causeA)
	}
}

// TestFaultInjectionMatrix kills one rank at the entry of each
// collective and asserts the contract the checkpoint recovery layer
// depends on: the failing rank returns the injected error, every peer
// unwinds from its next synchronization with the SAME cause (no
// deadlock, no secondary error masking it), and the group is
// permanently dead afterwards.
func TestFaultInjectionMatrix(t *testing.T) {
	boom := errors.New("simulated node death")
	const k = 4
	// Each plane collective reports one op name for both element types:
	// the "…32" cases run the float32 instance under the same name.
	ops := []struct {
		name, op string
		body     func(c *Comm) error
	}{
		{"Barrier", "Barrier", func(c *Comm) error { return c.Barrier() }},
		{"Alltoall", "Alltoall", func(c *Comm) error {
			return Alltoall(c, make([]float64, 4*k), make([]float64, 4*k))
		}},
		{"Alltoall32", "Alltoall", func(c *Comm) error {
			return Alltoall(c, make([]float32, 4*k), make([]float32, 4*k))
		}},
		{"AllreduceSum", "AllreduceSum", func(c *Comm) error {
			_, err := c.AllreduceSum(1)
			return err
		}},
		{"AllreduceMin", "AllreduceMin", func(c *Comm) error {
			_, err := c.AllreduceMin(float64(c.Rank()))
			return err
		}},
		{"AllreduceSumVec", "AllreduceSumVec", func(c *Comm) error {
			return c.AllreduceSumVec(make([]float64, 6))
		}},
		{"Sendrecv", "Sendrecv", func(c *Comm) error {
			re, im := make([]float64, 8), make([]float64, 8)
			return Sendrecv(c, c.Rank()^1, re, im, make([]float64, 8), make([]float64, 8))
		}},
		{"Sendrecv32", "Sendrecv", func(c *Comm) error {
			re, im := make([]float32, 8), make([]float32, 8)
			return Sendrecv(c, c.Rank()^1, re, im, make([]float32, 8), make([]float32, 8))
		}},
		{"AllGather", "AllGather", func(c *Comm) error {
			_, err := c.AllGather(make([]complex128, 4))
			return err
		}},
	}
	for _, op := range ops {
		for victim := 0; victim < k; victim += 3 { // ranks 0 and 3
			t.Run(fmt.Sprintf("%s/victim%d", op.name, victim), func(t *testing.T) {
				g, err := NewGroup(k, Transpose)
				if err != nil {
					t.Fatal(err)
				}
				g.SetFault(func(rank int, o string, call int) error {
					// Kill the victim the second time it enters the
					// collective under test: the first call proves the
					// healthy path still completes with a fault injector
					// installed.
					if rank == victim && o == op.op && call == 1 {
						return boom
					}
					return nil
				})
				var mu sync.Mutex
				rankErrs := make([]error, k)
				runErr := g.Run(func(c *Comm) error {
					for i := 0; i < 3; i++ {
						if err := op.body(c); err != nil {
							mu.Lock()
							rankErrs[c.Rank()] = err
							mu.Unlock()
							return err
						}
					}
					return nil
				})
				if !errors.Is(runErr, boom) {
					t.Fatalf("Run returned %v, want injected fault", runErr)
				}
				for r, re := range rankErrs {
					if re == nil {
						t.Errorf("rank %d returned nil, want abort unwind", r)
						continue
					}
					if !errors.Is(re, boom) {
						t.Errorf("rank %d unwound with %v, want the injected cause", r, re)
					}
				}
				// Healthy first round must have completed before the kill.
				if rankErrs[victim] == nil || !errors.Is(rankErrs[victim], boom) {
					t.Errorf("victim error = %v", rankErrs[victim])
				}
				// The group is permanently dead.
				if err := g.Run(func(c *Comm) error { return c.Barrier() }); !errors.Is(err, boom) {
					t.Errorf("post-abort Run = %v, want latched cause", err)
				}
			})
		}
	}
}

// TestFaultCallCountsPerRank checks the injector sees independent
// 0-based call counters per (rank, op) — the property the deterministic
// kill-at-call-m recovery tests rely on.
func TestFaultCallCountsPerRank(t *testing.T) {
	const k = 2
	g, err := NewGroup(k, Transpose)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[string][]int)
	g.SetFault(func(rank int, op string, call int) error {
		mu.Lock()
		key := fmt.Sprintf("r%d/%s", rank, op)
		seen[key] = append(seen[key], call)
		mu.Unlock()
		return nil
	})
	err = g.Run(func(c *Comm) error {
		for i := 0; i < 3; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		if _, err := c.AllreduceSum(1); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < k; r++ {
		key := fmt.Sprintf("r%d/Barrier", r)
		if got := seen[key]; len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Errorf("%s calls = %v, want [0 1 2]", key, got)
		}
		key = fmt.Sprintf("r%d/AllreduceSum", r)
		if got := seen[key]; len(got) != 1 || got[0] != 0 {
			t.Errorf("%s calls = %v, want [0]", key, got)
		}
	}
}
