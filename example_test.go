package qokit_test

import (
	"fmt"

	"qokit"
)

// The paper's Listing 1: evaluate the QAOA objective for weighted
// all-to-all MaxCut from precomputed costs.
func ExampleNewSimulator() {
	n := 6
	terms := qokit.AllToAllMaxCutTerms(n, 0.3)
	sim, err := qokit.NewSimulator(n, terms, qokit.Options{Backend: qokit.BackendSerial})
	if err != nil {
		panic(err)
	}
	fmt.Println("diagonal entries:", len(sim.CostDiagonal()))

	gamma, beta := qokit.TQAInit(2, 0.75)
	res, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		panic(err)
	}
	fmt.Printf("energy: %.4f\n", res.Expectation())
	fmt.Printf("norm:   %.4f\n", res.Norm())
	// Output:
	// diagonal entries: 64
	// energy: 1.6701
	// norm:   1.0000
}

// LABS cost polynomials and the known optima table.
func ExampleLABSTerms() {
	terms := qokit.LABSTerms(13)
	optimum, _ := qokit.LABSOptimalEnergy(13)
	fmt.Println("terms:", len(terms))
	fmt.Println("optimal energy:", optimum)
	fmt.Printf("merit factor: %.2f\n", qokit.MeritFactor(13, optimum))
	// Output:
	// terms: 162
	// optimal energy: 6
	// merit factor: 14.08
}
