// Command qaoabench regenerates every figure and table of the paper's
// evaluation section (§V–§VI) on this repository's simulators. Each
// subcommand prints the same series the paper plots, in long format
// (one row per measured point), plus the derived ratios the text
// quotes. See EXPERIMENTS.md for the recorded paper-vs-measured
// comparison.
//
// Usage:
//
//	qaoabench fig2   [-nmin 6] [-nmax 16] [-p 6] [-reps 3]
//	qaoabench fig3   [-nmin 6] [-nmax 16] [-tnmax 10] [-reps 3]
//	qaoabench fig4   [-n 18] [-pmax 1024]
//	qaoabench fig5   [-local 16] [-kmax 16] [-reps 3]
//	qaoabench opt    [-n 14] [-p 6] [-evals 60]
//	qaoabench grad   [-n 16] [-p 12] [-reps 3] [-backend auto]
//	qaoabench distgrad [-n 14] [-p 6] [-kmax 8] [-reps 3]
//	qaoabench suite  [-n 14] [-p 6] [-ranks 4] [-points 64] [-json] [-out BENCH_qaoa.json]
//	qaoabench landscape [-n 14] [-grid 24] [-workers 0]
//	qaoabench memory [-n 20]
//	qaoabench gates  [-nmax 31]
//	qaoabench all    (runs everything at default sizes)
package main

import (
	"fmt"
	"io"
	"os"
)

type command struct {
	name string
	desc string
	run  func(w io.Writer, args []string) error
}

func commands() []command {
	return []command{
		{"fig2", "Fig. 2: end-to-end CPU QAOA expectation, MaxCut 3-regular, p=6", runFig2},
		{"fig3", "Fig. 3: time per QAOA layer on LABS across simulators", runFig3},
		{"fig4", "Fig. 4: total simulation time vs depth p (precompute amortization)", runFig4},
		{"fig5", "Fig. 5: weak scaling of the distributed mixer (pairwise vs transpose)", runFig5},
		{"opt", "§I/§V: end-to-end parameter-optimization speedup", runOpt},
		{"landscape", "Fig. 3/4 workload: batched γ×β landscape scan through the evaluation service", runLandscape},
		{"memory", "§V-B: memory overhead of the precomputed diagonal (float64 vs uint16)", runMemory},
		{"gates", "§VI: compiled gate counts per QAOA layer (LABS)", runGates},
		{"scaling", "§I/§VII: LABS time-to-solution scaling, QAOA vs simulated annealing", runScaling},
		{"precision", "§V: single vs double precision — error accumulation with depth", runPrecision},
		{"grad", "adjoint vs finite-difference gradient wall-clock (speedup ~ p)", runGrad},
		{"distgrad", "distributed adjoint gradient: correctness, wall time, modeled fabric time", runDistGrad},
		{"suite", "fixed-size benchmark trajectory (forward/grad/sweep/distributed), -json for BENCH_qaoa.json", runSuite},
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	args := os.Args[2:]
	if name == "all" {
		for _, c := range commands() {
			fmt.Printf("==== %s — %s ====\n", c.name, c.desc)
			if err := c.run(os.Stdout, nil); err != nil {
				fmt.Fprintf(os.Stderr, "qaoabench %s: %v\n", c.name, err)
				os.Exit(1)
			}
			fmt.Println()
		}
		return
	}
	for _, c := range commands() {
		if c.name == name {
			if err := c.run(os.Stdout, args); err != nil {
				fmt.Fprintf(os.Stderr, "qaoabench %s: %v\n", name, err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "qaoabench: unknown experiment %q\n", name)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: qaoabench <experiment> [flags]")
	fmt.Fprintln(os.Stderr, "experiments:")
	for _, c := range commands() {
		fmt.Fprintf(os.Stderr, "  %-7s %s\n", c.name, c.desc)
	}
	fmt.Fprintln(os.Stderr, "  all     run every experiment at default sizes")
}
