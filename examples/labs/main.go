// LABS: the workload the paper scales to 40 qubits (Figs. 3–5). This
// example studies how QAOA solution quality on the Low Autocorrelation
// Binary Sequences problem improves with circuit depth p — the
// "high-depth QAOA" regime the simulator is built for — using the
// one-line problem helper of Listing 2.
//
//	go run ./examples/labs
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"qokit"
)

var (
	nQubits   = 14
	depths    = []int{1, 2, 4, 8}
	evalsPerP = 60
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	n := nQubits
	terms := qokit.LABSTerms(n)
	optE, _ := qokit.LABSOptimalEnergy(n)
	fmt.Fprintf(w, "LABS n=%d: %d polynomial terms, optimal energy %d (merit factor %.3f)\n",
		n, len(terms), optE, qokit.MeritFactor(n, optE))

	// One simulator instance; the precomputed diagonal is reused for
	// every depth and every optimizer evaluation below. The terms give
	// LABS's two symmetry pivots, so the simulator precomputes and keeps
	// only the quarter of the diagonal its quarter state is stored
	// over. At n = 14 those entries take at most 2^n/16 integer values,
	// so it keeps them as uint16 level codes alone (§V-B's memory
	// saving: 2 B per entry instead of 8) and gathers each phase from a
	// per-γ table instead of calling sincos per amplitude.
	sim, err := qokit.NewSimulator(n, terms, qokit.Options{})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\n%2s  %12s  %12s  %10s  %7s\n", "p", "E(TQA)", "E(optimized)", "overlap", "evals")
	for _, p := range depths {
		gamma, beta := qokit.TQAInit(p, 0.7)
		r0, err := sim.SimulateQAOA(gamma, beta)
		if err != nil {
			return err
		}
		tqaEnergy := r0.Expectation()

		g, b, energy, evals, err := qokit.OptimizeParameters(sim, p, qokit.NMOptions{MaxEvals: evalsPerP * p})
		if err != nil {
			return err
		}
		r, err := sim.SimulateQAOA(g, b)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%2d  %12.4f  %12.4f  %10.4g  %7d\n", p, tqaEnergy, energy, r.Overlap(), evals)
	}
	fmt.Fprintf(w, "\nrandom-guess baseline: E[uniform] = %.2f; optimum %d\n",
		meanCost(sim.CostDiagonal()), optE)
	fmt.Fprintln(w, "(expectation decreases and overlap grows with depth — the regime where")
	fmt.Fprintln(w, " precomputing the diagonal pays off most, since every extra layer reuses it)")
	return nil
}

func meanCost(diag []float64) float64 {
	var s float64
	for _, c := range diag {
		s += c
	}
	return s / float64(len(diag))
}
