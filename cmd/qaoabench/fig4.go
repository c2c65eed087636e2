package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"qokit/internal/benchutil"
	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/gatesim"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

// runFig4 reproduces Fig. 4: total simulation time versus the number
// of QAOA layers p for the LABS problem at fixed n. The precomputation
// is paid once and amortized over layers, so
//
//	total(p) = t_precompute + p · t_layer        (QOKit curves)
//	total(p) =              p · t_gate_layer     (gate-based curve)
//
// which is exactly how the paper constructs the figure ("to obtain the
// time for multiple function evaluations, one can simply use this plot
// with aggregate number of layers"). The harness measures the primitive
// costs directly — precompute, fast layer, compiled gate layer —
// verifies the additivity on a few real depths, and prints the
// synthesized curves. Precompute is timed three ways: serial ("CPU")
// and pooled ("GPU"-analogue) Precompute, which on LABS's integer
// weights take the blocked Walsh–Hadamard route, and the paper's
// per-term algorithm (one pooled pass over the diagonal per term).
func runFig4(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ContinueOnError)
	n := fs.Int("n", 18, "qubit count (paper: 26)")
	pmax := fs.Int("pmax", 1024, "largest depth (paper: 10^4)")
	reps := fs.Int("reps", 3, "timing repetitions")
	if err := fs.Parse(args); err != nil {
		return err
	}

	const gamma, beta = 0.31, 0.57
	terms := problems.LABSTerms(*n)
	compiled := poly.Compile(terms)

	tPreSerial, _ := benchutil.TimeRepeat(*reps, func() {
		_ = costvec.Precompute(compiled, *n)
	})
	pool := statevec.NewPool(0)
	tPrePool, _ := benchutil.TimeRepeat(*reps, func() {
		_ = costvec.PrecomputePool(pool, compiled, *n)
	})
	tPreTerm, _ := benchutil.TimeRepeat(*reps, func() {
		_ = costvec.PrecomputeTermKernels(pool, compiled, *n)
	})

	sim, err := core.New(*n, terms, core.Options{Backend: core.BackendSoA})
	if err != nil {
		return err
	}
	r, err := sim.SimulateQAOA(nil, nil)
	if err != nil {
		return err
	}
	tLayer, _ := benchutil.TimeRepeat(*reps, func() {
		if err := sim.ApplyLayer(r, gamma, beta); err != nil {
			panic(err)
		}
	})

	layer := gatesim.NewCircuit(*n)
	layer.AppendPhaseOperator(terms, gamma)
	layer.AppendXMixer(beta)
	layer = layer.CancelAdjacentCX()
	state := statevec.NewUniform(*n)
	eng := gatesim.NewEngine()
	tGate, _ := benchutil.TimeRepeat(*reps, func() {
		if err := eng.Run(layer, state); err != nil {
			panic(err)
		}
	})

	fmt.Fprintf(w, "Fig. 4 — total time vs depth, LABS n=%d\n", *n)
	fmt.Fprintf(w, "measured primitives: precompute serial %ss, pooled %ss, per-term %ss; qokit layer %ss, gate layer %ss\n",
		benchutil.Seconds(tPreSerial), benchutil.Seconds(tPrePool), benchutil.Seconds(tPreTerm),
		benchutil.Seconds(tLayer), benchutil.Seconds(tGate))

	precomputes := []struct {
		name string
		t    time.Duration
	}{
		{"serial", tPreSerial},
		{"pooled", tPrePool},
		{"per-term", tPreTerm},
	}
	var series []benchutil.Series
	for _, pre := range precomputes {
		s := benchutil.Series{Name: "qokit+" + pre.name + "-precompute"}
		for p := 1; p <= *pmax; p *= 4 {
			s.Add(float64(p), pre.t.Seconds()+float64(p)*tLayer.Seconds())
		}
		series = append(series, s)
	}
	gates := benchutil.Series{Name: "gates"}
	for p := 1; p <= *pmax; p *= 4 {
		gates.Add(float64(p), float64(p)*tGate.Seconds())
	}
	benchutil.FprintSeries(w, "p", "seconds", append(series, gates))

	// Crossover depth where the precomputed path overtakes gates:
	// p* = t_precompute / (t_gate_layer − t_layer).
	if tGate > tLayer {
		cross := make([]string, len(precomputes))
		for i, pre := range precomputes {
			cross[i] = fmt.Sprintf("%s precompute p* ≈ %.2f", pre.name, pre.t.Seconds()/(tGate.Seconds()-tLayer.Seconds()))
		}
		fmt.Fprintf(w, "\ncrossover vs gates: %s\n", strings.Join(cross, ", "))
		fmt.Fprintln(w, "(paper, per-term precompute: GPU amortizes within a single layer, CPU by p ≈ 10²)")
	}

	// Additivity check on real runs (guards the synthesized curves).
	for _, p := range []int{1, 8} {
		gammas := make([]float64, p)
		betas := make([]float64, p)
		for i := range gammas {
			gammas[i], betas[i] = gamma, beta
		}
		real1, _ := benchutil.TimeRepeat(1, func() {
			s2, err := core.New(*n, terms, core.Options{Backend: core.BackendSoA})
			if err != nil {
				panic(err)
			}
			if _, err := s2.SimulateQAOA(gammas, betas); err != nil {
				panic(err)
			}
		})
		model := tPrePool.Seconds() + float64(p)*tLayer.Seconds()
		fmt.Fprintf(w, "additivity check p=%d: measured %ss vs model %.3gs\n", p, benchutil.Seconds(real1), model)
	}
	return nil
}
