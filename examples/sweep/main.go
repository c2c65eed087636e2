// Parameter sweep: batch-evaluating many (γ, β) points against one
// precomputed diagonal through the evaluation service. This is the
// access pattern the paper's precomputation is built for — optimizers
// and landscape scans evaluate thousands of parameter sets against a
// diagonal that is computed exactly once. Here the problem is
// registered once in a problem registry and served by an elastic
// service: the worker pool grows from observed queue backlog while the
// landscape batch is in flight and decays back to its floor afterward,
// and every evaluator the pool builds shares the registry's single
// cached diagonal.
//
//	go run ./examples/sweep
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"

	"qokit"
)

var (
	nQubits  = 14
	gridSize = 24
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	n := nQubits
	terms := qokit.LABSTerms(n)

	// Register the problem once; the diagonal is precomputed on the
	// first evaluator build and cached for every build after it.
	reg := qokit.NewProblemRegistry(qokit.RegistryOptions{})
	key, err := reg.Register(qokit.ProblemSpec{N: n, Terms: terms})
	if err != nil {
		return err
	}
	svc, err := qokit.NewRegistryService(reg, key, qokit.RegistryServiceOptions{
		Elastic: qokit.ElasticOptions{
			MinWorkers: 1,
			MaxWorkers: runtime.GOMAXPROCS(0),
		},
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	ctx := context.Background()

	// Batch 1: the p = 1 energy landscape on a γ × β grid. The batch
	// floods the FIFO queue, so the elastic pool scales up from its
	// one-worker floor while it drains.
	gammas := make([]float64, gridSize)
	betas := make([]float64, gridSize)
	for i := range gammas {
		gammas[i] = math.Pi * float64(i) / float64(gridSize)
		betas[i] = math.Pi / 2 * float64(i) / float64(gridSize)
	}
	xs := qokit.SweepGrid(gammas, betas)
	energies, err := svc.EnergyBatch(ctx, xs, nil)
	if err != nil {
		return err
	}
	grew := svc.LiveWorkers()
	best := qokit.ArgMinEnergies(energies)
	// The overlap of the winning point comes from one outputs request —
	// cheaper than computing it for the whole grid.
	bestOuts, err := svc.EvalOutputs(ctx, xs[best], qokit.OutputSpec{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "LABS n=%d: swept %d-point p=1 landscape through the elastic service\n",
		n, len(xs))
	fmt.Fprintf(w, "landscape minimum E = %.4f at γ = %.4f, β = %.4f (overlap %.4g)\n",
		energies[best], xs[best][0], xs[best][1], bestOuts.Overlap)
	fmt.Fprintf(w, "pool scaled to %d workers for the batch (floor 1, ceiling %d)\n",
		grew, runtime.GOMAXPROCS(0))

	// Batch 2: a multi-start depth-p batch — TQA schedules at many
	// time steps, the standard way to seed high-depth optimization.
	const p = 8
	var starts [][]float64
	var dts []float64
	for dt := 0.3; dt <= 1.2; dt += 0.05 {
		g, b := qokit.TQAInit(p, dt)
		starts = append(starts, append(g, b...))
		dts = append(dts, dt)
	}
	res2, err := svc.EnergyBatch(ctx, starts, nil)
	if err != nil {
		return err
	}
	best2 := qokit.ArgMinEnergies(res2)
	fmt.Fprintf(w, "\nswept %d TQA schedules at p=%d in one batch:\n", len(starts), p)
	fmt.Fprintf(w, "best time step dt = %.2f with E = %.4f\n", dts[best2], res2[best2])

	// The same service then serves the optimizer: every Nelder–Mead
	// evaluation goes through the queue onto a worker's workspace.
	var simErr error
	g0, b0 := qokit.TQAInit(p, dts[best2])
	nm := qokit.NelderMead(svc.Objective(ctx, &simErr),
		append(g0, b0...), qokit.NMOptions{MaxEvals: 40 * p})
	if simErr != nil {
		return simErr
	}
	outs, err := svc.EvalOutputs(ctx, nm.X, qokit.OutputSpec{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nrefined with Nelder–Mead (%d evaluations through the service):\n", nm.Evals)
	fmt.Fprintf(w, "E = %.4f, overlap %.4g\n", nm.F, outs.Overlap)
	st := reg.Stats()
	fmt.Fprintf(w, "\n(every evaluation above shared one cached diagonal: %d precompute, %d registry hits\n",
		st.Precomputes, st.Hits)
	fmt.Fprintln(w, " — the registry turns the paper's precompute-once design into batch throughput)")
	return nil
}
