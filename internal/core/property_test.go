package core

// Property-based randomized suite: on randomly generated problems
// (terms of random degree/weights), random depths, and random angles,
// every state representation must (a) preserve the norm — all QAOA
// operators are unitary — and (b) agree with the serial complex128
// reference state. Table-driven over all three representations:
// serial complex128, SoA float64, and SoA32 single precision (which
// inherits rounding error with depth, so its band is wider but still
// asserted).

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qokit/internal/poly"
	"qokit/internal/statevec"
)

// randTerms draws a random spin polynomial: up to maxTerms terms of
// degree 0–4 with O(1) weights (duplicate variables allowed — the
// constructor must fold them).
func randTerms(rng *rand.Rand, n int) poly.Terms {
	count := 1 + rng.Intn(12)
	ts := make(poly.Terms, 0, count)
	for i := 0; i < count; i++ {
		deg := rng.Intn(5)
		vars := make([]int, deg)
		for j := range vars {
			vars[j] = rng.Intn(n)
		}
		ts = append(ts, poly.Term{Weight: rng.NormFloat64(), Vars: vars})
	}
	return ts.Canonical()
}

func propertyBackends() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"serial", Options{Backend: BackendSerial}},
		{"soa", Options{Backend: BackendSoA, Workers: 3}},
		{"soa32", Options{Backend: BackendSoA, Workers: 3, SinglePrecision: true}},
	}
}

func TestPropertyNormAndCrossBackendEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(90210))
	iters := 14
	if testing.Short() {
		iters = 4
	}
	mixers := []Mixer{MixerX, MixerXYRing, MixerXYComplete}
	for it := 0; it < iters; it++ {
		n := 4 + rng.Intn(5) // 4..8 qubits
		p := 1 + rng.Intn(8) // depth 1..8
		mixer := mixers[rng.Intn(len(mixers))]
		terms := randTerms(rng, n)
		gamma := make([]float64, p)
		beta := make([]float64, p)
		for l := range gamma {
			gamma[l] = 2 * (rng.Float64() - 0.5)
			beta[l] = 2 * (rng.Float64() - 0.5)
		}
		label := fmt.Sprintf("it=%d n=%d p=%d mixer=%v |terms|=%d", it, n, p, mixer, len(terms))

		ref, err := New(n, terms, Options{Backend: BackendSerial, Mixer: mixer})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		refRes, err := ref.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		refState := refRes.StateVector()
		refE := refRes.Expectation()

		for _, bk := range propertyBackends() {
			opts := bk.opts
			opts.Mixer = mixer
			sim, err := New(n, terms, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", label, bk.name, err)
			}
			res, err := sim.SimulateQAOA(gamma, beta)
			if err != nil {
				t.Fatalf("%s %s: %v", label, bk.name, err)
			}
			state := res.StateVector()

			// Unitarity: the evolved state stays normalized.
			normTol := 1e-10
			if opts.SinglePrecision {
				normTol = 1e-4 * float64(p)
			}
			if d := math.Abs(state.Norm() - 1); d > normTol {
				t.Errorf("%s %s: |‖ψ‖−1| = %g > %g", label, bk.name, d, normTol)
			}

			// Cross-backend equivalence against the serial reference.
			stateTol := 1e-11
			eTol := 1e-9
			if opts.SinglePrecision {
				stateTol = 2e-4 * float64(p)
				eTol = 1e-2 * float64(p)
			}
			if d := statevec.MaxAbsDiff(state, refState); d > stateTol {
				t.Errorf("%s %s: state deviates from serial by %g > %g", label, bk.name, d, stateTol)
			}
			if d := math.Abs(res.Expectation() - refE); d > eTol {
				t.Errorf("%s %s: energy deviates from serial by %g > %g", label, bk.name, d, eTol)
			}
		}
	}
}
