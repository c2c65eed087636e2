package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qokit/internal/problems"
)

// checkTiledPoolSizeInvariance pins KernelPoolView's promise on the
// split layouts, whose tile shapes depend on the pool size: at n = 13,
// 14 and 18, simulators on 1, 2 and 3 workers and a one-worker view of
// the three-worker simulator evolve bit-identical states, and their
// adjoint gradients, whose reductions are summed per tile, agree to
// 1e-13 of the gradient's max-norm.
func checkTiledPoolSizeInvariance(t *testing.T, single bool) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{13, 14, 18} {
		diag := problemDiag(t, n)
		gamma, beta := randomAngles(rng, 3)
		var sims []*Simulator
		for _, w := range []int{1, 2, 3} {
			s, err := NewFromDiagonal(n, diag, Options{Backend: BackendSoA, SinglePrecision: single, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			sims = append(sims, s)
		}
		sims = append(sims, sims[2].KernelPoolView(1))
		var refState []complex128
		var refG, refB []float64
		for k, s := range sims {
			label := fmt.Sprintf("n=%d single=%v sim %d (workers %d)", n, single, k, s.Workers())
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
}

// problemDiag returns the LABS cost diagonal for n qubits.
func problemDiag(t *testing.T, n int) []float64 {
	t.Helper()
	s, err := New(n, problems.LABSTerms(n), Options{Backend: BackendSoA, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s.CostDiagonal()
}

func TestTiledPoolSizeInvariance(t *testing.T)      { checkTiledPoolSizeInvariance(t, false) }
func TestTiledPoolSizeInvarianceSoA32(t *testing.T) { checkTiledPoolSizeInvariance(t, true) }
