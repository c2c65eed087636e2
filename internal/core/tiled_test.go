package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qokit/internal/problems"
	"qokit/internal/statevec"
)

// checkTiledPoolSizeInvariance pins the split layouts' pool-size
// invariance, since their tile shapes depend on the pool size: at n =
// 13, 14 and 18, simulators on 1, 2 and 3 workers evolve bit-identical
// states, and their adjoint gradients, whose reductions are summed per
// tile, agree to 1e-13 of the gradient's max-norm. LABS runs on the
// half state, which tiles n−1 qubits, and again from an explicit
// uniform InitialState on the full state, which tiles all n.
func checkTiledPoolSizeInvariance(t *testing.T, single bool) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{13, 14, 18} {
		diag := problemDiag(t, n)
		for _, start := range []statevec.Vec{nil, statevec.NewUniform(n)} {
			checkPoolSizeInvariance(t, rng, n, diag, Options{Backend: BackendSoA, SinglePrecision: single, InitialState: start})
		}
	}
}

// checkPoolSizeInvariance runs one case of checkTiledPoolSizeInvariance.
func checkPoolSizeInvariance(t *testing.T, rng *rand.Rand, n int, diag []float64, opts Options) {
	gamma, beta := randomAngles(rng, 3)
	var refState []complex128
	var refG, refB []float64
	for k, w := range []int{1, 2, 3} {
		opts.Workers = w
		s, err := NewFromDiagonal(n, diag, opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("n=%d single=%v half=%v sim %d (workers %d)", n, opts.SinglePrecision, s.half, k, s.Workers())
		requireHalfSide(t, label, s, opts.InitialState == nil)
		r, err := s.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		_, gG, gB, err := s.SimulateQAOAGrad(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		state := r.StateVector()
		if k == 0 {
			refState, refG, refB = state, gG, gB
			continue
		}
		for i := range state {
			if state[i] != refState[i] {
				t.Fatalf("%s: state differs from one worker at %d", label, i)
			}
		}
		var scale float64
		for _, g := range append(append([]float64(nil), refG...), refB...) {
			scale = math.Max(scale, math.Abs(g))
		}
		for l := range gG {
			if math.Abs(gG[l]-refG[l]) > 1e-13*scale || math.Abs(gB[l]-refB[l]) > 1e-13*scale {
				t.Errorf("%s: layer %d gradient (%v, %v), one worker (%v, %v)", label, l, gG[l], gB[l], refG[l], refB[l])
			}
		}
	}
}

// problemDiag returns the LABS cost diagonal for n qubits.
func problemDiag(tb testing.TB, n int) []float64 {
	tb.Helper()
	s, err := New(n, problems.LABSTerms(n), Options{Backend: BackendSoA, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return s.CostDiagonal()
}

func TestTiledPoolSizeInvariance(t *testing.T)      { checkTiledPoolSizeInvariance(t, false) }
func TestTiledPoolSizeInvarianceSoA32(t *testing.T) { checkTiledPoolSizeInvariance(t, true) }
