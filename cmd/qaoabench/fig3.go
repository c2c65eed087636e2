package main

import (
	"flag"
	"fmt"
	"io"

	"qokit/internal/benchutil"
	"qokit/internal/core"
	"qokit/internal/gatesim"
	"qokit/internal/problems"
	"qokit/internal/statevec"
	"qokit/internal/tensornet"
)

// runFig3 reproduces Fig. 3: the time to apply a single QAOA layer for
// the LABS problem across simulator families. Matching the paper's
// methodology, the QOKit curves exclude the (amortized) precomputation
// — Fig. 4 accounts for it — and the tensor-network points are the
// contraction time of one output amplitude, a lower bound for full
// state evolution.
//
// Curves:
//
//	tn-size / tn-flops — tensor-network contraction (two order
//	                     heuristics); points above the size cap are
//	                     reported as "capped" (the baseline's failure
//	                     mode for deep dense circuits)
//	qiskit-analog      — gate-by-gate, serial
//	gates-pooled       — gate-by-gate on the worker pool
//	                     ("cuStateVec (gates)")
//	qokit              — precomputed diagonal, complex128 kernels
//	qokit-soa          — precomputed diagonal, split-layout kernels
//	                     (the "QOKit (cuStateVec)" ≈2× kernel gap)
func runFig3(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("fig3", flag.ContinueOnError)
	nmin := fs.Int("nmin", 6, "smallest qubit count")
	nmax := fs.Int("nmax", 16, "largest qubit count")
	tnmax := fs.Int("tnmax", 10, "largest qubit count for tensor-network baselines")
	reps := fs.Int("reps", 3, "timing repetitions (median reported)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	const gamma, beta = 0.31, 0.57
	series := []benchutil.Series{
		{Name: "tn-size"}, {Name: "tn-flops"},
		{Name: "qiskit-analog"}, {Name: "gates-pooled"},
		{Name: "qokit"}, {Name: "qokit-soa"},
	}

	for n := *nmin; n <= *nmax; n += 2 {
		terms := problems.LABSTerms(n)

		// Tensor-network baselines: one amplitude of a p=1 circuit.
		if n <= *tnmax {
			circ, err := gatesim.BuildQAOA(n, terms, []float64{gamma}, []float64{beta})
			if err != nil {
				return err
			}
			for i, h := range []tensornet.Heuristic{tensornet.GreedySize, tensornet.GreedyFlops} {
				var failed error
				t, _ := benchutil.TimeRepeat(*reps, func() {
					if _, err := tensornet.Amplitude(circ, 0, h, 1<<24); err != nil {
						failed = err
					}
				})
				if failed != nil {
					series[i].AddNote(float64(n), t.Seconds(), "capped")
				} else {
					series[i].Add(float64(n), t.Seconds())
				}
			}
		} else {
			series[0].AddNote(float64(n), 0, "skipped")
			series[1].AddNote(float64(n), 0, "skipped")
		}

		// Gate-based: one compiled layer applied to an existing state.
		layer := gatesim.NewCircuit(n)
		layer.AppendPhaseOperator(terms, gamma)
		layer.AppendXMixer(beta)
		layer = layer.CancelAdjacentCX()
		for i, eng := range []*gatesim.Engine{gatesim.NewEngine(), gatesim.NewPooledEngine(0)} {
			state := uniformState(n)
			t, _ := benchutil.TimeRepeat(*reps, func() {
				if err := eng.Run(layer, state); err != nil {
					panic(err)
				}
			})
			series[2+i].Add(float64(n), t.Seconds())
		}

		// Fast simulators: one ApplyLayer on an existing result.
		for i, opts := range []core.Options{
			{Backend: core.BackendParallel},
			{Backend: core.BackendSoA},
		} {
			sim, err := core.New(n, terms, opts)
			if err != nil {
				return err
			}
			r, err := sim.SimulateQAOA(nil, nil)
			if err != nil {
				return err
			}
			t, _ := benchutil.TimeRepeat(*reps, func() {
				sim.ApplyLayer(r, gamma, beta)
			})
			series[4+i].Add(float64(n), t.Seconds())
		}
	}

	fmt.Fprintf(w, "Fig. 3 — time per QAOA layer, LABS (median of %d; TN = single-amplitude contraction)\n", *reps)
	benchutil.FprintSeries(w, "n", "seconds", series)
	fmt.Fprintln(w, "\nDerived ratios at the largest n:")
	printLastRatio(w, series, "qiskit-analog", "qokit", "gate-based / qokit (paper: ~20× at n=26)")
	printLastRatio(w, series, "qokit", "qokit-soa", "qokit / qokit-soa kernel gap (paper: ≈2×)")
	return nil
}

func printLastRatio(w io.Writer, series []benchutil.Series, num, den, label string) {
	var a, b float64
	for _, s := range series {
		if len(s.Points) == 0 {
			continue
		}
		last := s.Points[len(s.Points)-1]
		if last.Note != "" {
			continue
		}
		switch s.Name {
		case num:
			a = last.Y
		case den:
			b = last.Y
		}
	}
	if a > 0 && b > 0 {
		fmt.Fprintf(w, "  %s: %.1f×\n", label, a/b)
	}
}

func uniformState(n int) statevec.Vec { return statevec.NewUniform(n) }
