package main

import (
	"flag"
	"fmt"
	"io"

	"qokit/internal/benchutil"
	"qokit/internal/core"
	"qokit/internal/gatesim"
	"qokit/internal/graphs"
	"qokit/internal/optimize"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

// runFig2 reproduces Fig. 2: runtime of one end-to-end QAOA
// expectation evaluation (construction + p layers + objective) with
// p = 6 on MaxCut over 3-regular graphs, for the three CPU simulator
// archetypes:
//
//	openqaoa-analog — no cached diagonal: the phase operator
//	                  re-evaluates the cost polynomial every layer
//	                  (benchutil.RecomputeEnergy)
//	qiskit-analog   — conventional gate-by-gate simulation of the
//	                  compiled QAOA circuit
//	qokit-cpu       — this package's precomputed-diagonal simulator
//
// The paper reports a ≈5–10× QOKit advantage over Qiskit/OpenQAOA
// across n; the harness prints the measured ratio per n.
func runFig2(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("fig2", flag.ContinueOnError)
	nmin := fs.Int("nmin", 6, "smallest qubit count")
	nmax := fs.Int("nmax", 16, "largest qubit count")
	p := fs.Int("p", 6, "QAOA depth (paper: 6)")
	reps := fs.Int("reps", 3, "timing repetitions (median reported)")
	seed := fs.Int64("seed", 1, "graph seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	gamma, beta := optimize.TQAInit(*p, 0.75)
	series := []benchutil.Series{{Name: "openqaoa-analog"}, {Name: "qiskit-analog"}, {Name: "qokit-cpu"}}
	ratios := benchutil.NewTable("n", "qiskit/qokit", "openqaoa/qokit")

	for n := *nmin; n <= *nmax; n += 2 {
		g, err := graphs.RandomRegular(n, 3, *seed)
		if err != nil {
			return err
		}
		terms := problems.MaxCutTerms(g)

		tRecompute, _ := benchutil.TimeRepeat(*reps, func() {
			_ = benchutil.RecomputeEnergy(n, poly.Compile(terms), gamma, beta)
		})

		tGate, _ := benchutil.TimeRepeat(*reps, func() {
			circ, err := gatesim.BuildQAOA(n, terms, gamma, beta)
			if err != nil {
				panic(err)
			}
			v, err := gatesim.NewEngine().Simulate(circ)
			if err != nil {
				panic(err)
			}
			diag := make([]float64, len(v))
			for x := range diag {
				diag[x] = terms.Eval(uint64(x))
			}
			_ = statevec.ExpectationDiag(v, diag)
		})

		tQOKit, _ := benchutil.TimeRepeat(*reps, func() {
			sim, err := core.New(n, terms, core.Options{Backend: core.BackendSerial})
			if err != nil {
				panic(err)
			}
			r, err := sim.SimulateQAOA(gamma, beta)
			if err != nil {
				panic(err)
			}
			_ = r.Expectation()
		})

		series[0].Add(float64(n), tRecompute.Seconds())
		series[1].Add(float64(n), tGate.Seconds())
		series[2].Add(float64(n), tQOKit.Seconds())
		ratios.Add(fmt.Sprint(n),
			fmt.Sprintf("%.1f", tGate.Seconds()/tQOKit.Seconds()),
			fmt.Sprintf("%.1f", tRecompute.Seconds()/tQOKit.Seconds()))
	}

	fmt.Fprintf(w, "Fig. 2 — end-to-end QAOA expectation, MaxCut 3-regular, p=%d (median of %d)\n", *p, *reps)
	benchutil.FprintSeries(w, "n", "seconds", series)
	fmt.Fprintln(w, "\nSpeedup of the precomputed-diagonal simulator (paper: ≈5–10× vs Qiskit):")
	ratios.Fprint(w)
	return nil
}
