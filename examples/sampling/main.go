// Sampling and time-to-solution: QAOA's hardware output is a stream of
// measured bitstrings, and the quantity that decides quantum advantage
// on LABS is how many shots (× circuit depth) it takes to see an
// optimal sequence — compared against how many flips a classical
// heuristic needs (§I, §VII; companion Ref. [6]). This example runs
// the whole comparison at laptop scale: simulate, sample shots,
// estimate the energy from finite shots, and race the shot-based
// time-to-solution against simulated annealing.
//
//	go run ./examples/sampling
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"qokit"
)

var (
	nQubits      = 12
	depth        = 8
	interpEvals  = 100
	shotSizes    = []int{100, 1000, 10000}
	annealBudget = 30000
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	n, p := nQubits, depth
	terms := qokit.LABSTerms(n)
	optE, _ := qokit.LABSOptimalEnergy(n)

	sim, err := qokit.NewSimulator(n, terms, qokit.Options{})
	if err != nil {
		return err
	}
	gamma, beta, energy, evals, err := qokit.OptimizeParametersInterp(sim, p, interpEvals)
	if err != nil {
		return err
	}
	res, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		return err
	}
	overlap := res.Overlap()
	fmt.Fprintf(w, "LABS n=%d: INTERP-optimized p=%d QAOA (%d evaluations)\n", n, p, evals)
	fmt.Fprintf(w, "  ⟨E⟩ = %.3f (optimum %d), ground-state overlap %.4g\n", energy, optE, overlap)

	// Finite-shot estimates converge to the exact expectation.
	cost := func(x uint64) float64 { return float64(qokit.LABSEnergy(x, n)) }
	exact := res.Expectation()
	fmt.Fprintln(w, "\nshots   estimate ± stderr   (exact", fmt.Sprintf("%.4f)", exact))
	for _, shots := range shotSizes {
		samples, err := qokit.SampleResult(res, shots, 7)
		if err != nil {
			return err
		}
		mean, stderr := qokit.EstimateExpectation(samples, cost)
		fmt.Fprintf(w, "%6d  %8.4f ± %.4f\n", shots, mean, stderr)
	}

	// Quantum time-to-solution: expected shots until an optimal
	// sequence is measured, at 99% confidence.
	shots, err := qokit.SamplesToSolution(overlap, 0.99)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nexpected shots to optimal sequence (99%%): %.1f  (≈ %.0f circuit layers)\n",
		shots, shots*float64(p))

	// Empirical check: sample until the optimum actually appears.
	samples, err := qokit.SampleResult(res, int(4*shots)+1, 11)
	if err != nil {
		return err
	}
	firstHit := -1
	for i, x := range samples {
		if qokit.LABSEnergy(x, n) == optE {
			firstHit = i + 1
			break
		}
	}
	fmt.Fprintf(w, "empirical first optimal sample: shot #%d\n", firstHit)

	// Classical race: simulated-annealing flips to the same optimum.
	steps, err := qokit.StepsToOptimum(func(x uint64) qokit.Walker {
		return qokit.NewLABSWalker(n, x)
	}, n, float64(optE), annealBudget, 13, 100)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "simulated annealing reached E=%d after %d flips\n", optE, steps)
	fmt.Fprintln(w, "\n(the paper's companion runs exactly this comparison at n up to 40 —")
	fmt.Fprintln(w, " enabled by the distributed simulator in this repository's distsim package)")
	return nil
}
