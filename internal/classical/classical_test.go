package classical

import (
	"math/rand"
	"testing"
	"testing/quick"

	"qokit/internal/problems"
)

func TestLABSWalkerTracksEnergyThroughRandomFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, n := range []int{3, 5, 8, 13, 20} {
		start := rng.Uint64() & (1<<uint(n) - 1)
		w := NewLABSWalker(n, start)
		if got, want := w.Energy(), float64(problems.LABSEnergy(start, n)); got != want {
			t.Fatalf("n=%d initial energy %v, want %v", n, got, want)
		}
		for step := 0; step < 200; step++ {
			i := rng.Intn(n)
			predicted := w.Energy() + w.FlipDelta(i)
			w.Flip(i)
			direct := float64(problems.LABSEnergy(w.State(), n))
			if w.Energy() != direct {
				t.Fatalf("n=%d step %d: incremental energy %v, direct %v", n, step, w.Energy(), direct)
			}
			if predicted != direct {
				t.Fatalf("n=%d step %d: FlipDelta predicted %v, got %v", n, step, predicted, direct)
			}
		}
	}
}

func TestSAFindsLABSOptimumSmall(t *testing.T) {
	for _, n := range []int{6, 8, 10} {
		opt, ok := problems.LABSOptimalEnergy(n)
		if !ok {
			t.Fatal("missing optimum")
		}
		res := SimulatedAnnealing(NewLABSWalker(n, 0), SAOptions{Steps: 20000, Seed: 5})
		if int(res.BestEnergy) != opt {
			t.Errorf("n=%d: SA best %v, optimum %d", n, res.BestEnergy, opt)
		}
		if problems.LABSEnergy(res.Best, n) != int(res.BestEnergy) {
			t.Errorf("n=%d: reported state does not achieve reported energy", n)
		}
	}
	// Larger sizes need restarts — exactly why time-to-solution is the
	// right classical metric (see StepsToOptimum).
	for _, n := range []int{12, 14} {
		opt, _ := problems.LABSOptimalEnergy(n)
		if _, err := StepsToOptimum(func(x uint64) Walker { return NewLABSWalker(n, x) },
			n, float64(opt), 30000, 5, 100); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestSATargetStopsEarly(t *testing.T) {
	n := 10
	opt, _ := problems.LABSOptimalEnergy(n)
	res := SimulatedAnnealing(NewLABSWalker(n, 0), SAOptions{
		Steps: 200000, Seed: 7, Target: float64(opt), UseTarget: true,
	})
	if res.StepsToTarget < 0 {
		t.Fatal("target never reached")
	}
	if res.StepsToTarget >= 200000 {
		t.Errorf("no early stop: %d", res.StepsToTarget)
	}
	if int(res.BestEnergy) != opt {
		t.Errorf("stopped at energy %v", res.BestEnergy)
	}
	// Without UseTarget the run must not stop at step 0 for negative
	// energies (the zero-value trap).
	r2 := SimulatedAnnealing(negatedWalker{NewLABSWalker(6, 0)}, SAOptions{Steps: 100, Seed: 1})
	if r2.StepsToTarget != -1 {
		t.Error("StepsToTarget set without UseTarget")
	}
}

// negatedWalker maximizes the LABS energy: every energy it reports is
// negative, below the zero-value Target.
type negatedWalker struct{ *LABSWalker }

func (w negatedWalker) Energy() float64         { return -w.LABSWalker.Energy() }
func (w negatedWalker) FlipDelta(i int) float64 { return -w.LABSWalker.FlipDelta(i) }

func TestSADeterministic(t *testing.T) {
	a := SimulatedAnnealing(NewLABSWalker(12, 0), SAOptions{Steps: 5000, Seed: 11})
	b := SimulatedAnnealing(NewLABSWalker(12, 0), SAOptions{Steps: 5000, Seed: 11})
	if a.Best != b.Best || a.BestEnergy != b.BestEnergy {
		t.Error("same seed produced different runs")
	}
}

func TestStepsToOptimum(t *testing.T) {
	n := 8
	opt, _ := problems.LABSOptimalEnergy(n)
	steps, err := StepsToOptimum(func(x uint64) Walker { return NewLABSWalker(n, x) },
		n, float64(opt), 20000, 17, 50)
	if err != nil {
		t.Fatal(err)
	}
	if steps <= 0 {
		t.Errorf("steps = %d", steps)
	}
	// Unreachable target must error out.
	if _, err := StepsToOptimum(func(x uint64) Walker { return NewLABSWalker(n, x) },
		n, -1, 100, 17, 2); err == nil {
		t.Error("unreachable target succeeded")
	}
}

// Property (testing/quick): FlipDelta is the exact negation under a
// double flip (flip twice = no-op).
func TestQuickFlipInvolution(t *testing.T) {
	f := func(raw uint16, idx uint8) bool {
		n := 12
		x := uint64(raw) & (1<<uint(n) - 1)
		i := int(idx) % n
		w := NewLABSWalker(n, x)
		e0 := w.Energy()
		d1 := w.FlipDelta(i)
		w.Flip(i)
		d2 := w.FlipDelta(i)
		w.Flip(i)
		return w.Energy() == e0 && d1 == -d2 && w.State() == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
