package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qokit/internal/evaluator"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

func TestVarianceZeroOnEigenstate(t *testing.T) {
	// p = 0 from a basis state is an eigenstate of the diagonal.
	n := 6
	ts := problems.LABSTerms(n)
	init := make([]complex128, 1<<uint(n))
	init[13] = 1
	sim, err := New(n, ts, Options{Backend: BackendSerial, InitialState: init})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.SimulateQAOA(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Variance(); v > 1e-12 {
		t.Errorf("eigenstate variance %g", v)
	}
	if e := r.Expectation(); math.Abs(e-float64(problems.LABSEnergy(13, n))) > 1e-9 {
		t.Errorf("eigenstate expectation %v", e)
	}
}

func TestVarianceMatchesDirectSum(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	n := 7
	sim, err := New(n, problems.LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gamma, beta := randomAngles(rng, 3)
	r, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	probs := r.Probabilities(nil, true)
	diag := sim.CostDiagonal()
	var mean, second float64
	for x, p := range probs {
		mean += p * diag[x]
		second += p * diag[x] * diag[x]
	}
	want := second - mean*mean
	if got := r.Variance(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got := r.Variance(); got < 0 {
		t.Errorf("negative variance %v", got)
	}
}

// TestVarianceMatchesEvalOutputs: Result.Variance and EvalOutputs'
// Variance run the one Welford pass (costVariance), so they agree bit
// for bit on every backend, on the quarter state LABS stores and on
// the full state.
func TestVarianceMatchesEvalOutputs(t *testing.T) {
	const n = 9
	gamma, beta := randomAngles(rand.New(rand.NewSource(41)), 3)
	x := append(append([]float64(nil), gamma...), beta...)
	for _, opts := range []Options{
		{Backend: BackendSerial},
		{Backend: BackendParallel},
		{Backend: BackendSoA},
		{Backend: BackendSoA, SinglePrecision: true},
		{Backend: BackendSoA, InitialState: statevec.NewUniform(n)},
	} {
		sim, err := New(n, problems.LABSTerms(n), opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%v single=%v h=%d", sim.Backend(), opts.SinglePrecision, sim.pivots())
		r, err := sim.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sim.EvalOutputs(context.Background(), x, evaluator.OutputSpec{Variance: true})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r.Variance(), out.Variance; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Result.Variance %v, EvalOutputs %v", label, got, want)
		}
	}
}

func TestCVaRProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	n := 7
	sim, err := New(n, problems.LABSTerms(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gamma, beta := randomAngles(rng, 2)
	r, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	// CVaR(1) = expectation.
	full, err := r.CVaR(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-r.Expectation()) > 1e-9 {
		t.Errorf("CVaR(1) = %v, expectation %v", full, r.Expectation())
	}
	// Monotone nonincreasing as α shrinks, bounded below by the min.
	prev := full
	for _, alpha := range []float64{0.5, 0.2, 0.05, 0.01} {
		v, err := r.CVaR(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if v > prev+1e-9 {
			t.Errorf("CVaR(%v) = %v rose above CVaR at larger α (%v)", alpha, v, prev)
		}
		if v < sim.MinCost()-1e-9 {
			t.Errorf("CVaR(%v) = %v below ground energy %v", alpha, v, sim.MinCost())
		}
		prev = v
	}
	// Invalid levels.
	if _, err := r.CVaR(0); err == nil {
		t.Error("CVaR(0) accepted")
	}
	if _, err := r.CVaR(1.5); err == nil {
		t.Error("CVaR(1.5) accepted")
	}
}

func TestCVaRTinyAlphaApproachesBestSampledCost(t *testing.T) {
	// With α far below the largest single probability, CVaR equals the
	// cost of the cheapest state carrying any probability mass.
	n := 5
	sim, err := New(n, problems.LABSTerms(n), Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.SimulateQAOA([]float64{0.3}, []float64{0.4})
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.CVaR(1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-sim.MinCost()) > 1e-6 {
		t.Errorf("CVaR(ε) = %v, ground energy %v", v, sim.MinCost())
	}
}

func TestCVaRShortfallChargesLastVisitedCost(t *testing.T) {
	// Regression: when normalization shortfall remains after the sweep,
	// it must be charged at the largest positive-probability cost
	// actually visited — not at order[len(order)-1], which can be a
	// zero-probability state. An unnormalized initial state with zero
	// amplitude on the top-cost states makes the two charges differ by
	// a macroscopic amount.
	n := 4
	diag := make([]float64, 1<<uint(n))
	for i := range diag {
		diag[i] = float64(i) // ascending costs; state 15 is the most expensive
	}
	init := make([]complex128, 1<<uint(n))
	init[0] = complex(math.Sqrt(0.3), 0)
	init[3] = complex(math.Sqrt(0.3), 0) // largest positive-probability cost: 3
	sim, err := NewFromDiagonal(n, diag, Options{Backend: BackendSerial, InitialState: init})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.SimulateQAOA(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.CVaR(1)
	if err != nil {
		t.Fatal(err)
	}
	// mass: 0.3·cost0 + 0.3·cost3, shortfall 0.4 charged at cost 3.
	want := 0.3*0 + 0.3*3 + 0.4*3
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("CVaR(1) = %v, want %v (shortfall mischarged)", got, want)
	}
}

func TestCostOrderCached(t *testing.T) {
	n := 5
	sim, err := New(n, problems.LABSTerms(n), Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	a := sim.costOrder()
	b := sim.costOrder()
	if &a[0] != &b[0] {
		t.Error("cost order not cached")
	}
	diag := sim.CostDiagonal()
	for i := 1; i < len(a); i++ {
		if diag[a[i]] < diag[a[i-1]] {
			t.Fatal("cost order not ascending")
		}
	}
}
