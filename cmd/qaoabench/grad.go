package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"time"

	"qokit/internal/benchutil"
	"qokit/internal/core"
	"qokit/internal/evaluator"
	"qokit/internal/grad"
	"qokit/internal/optimize"
	"qokit/internal/problems"
	"qokit/internal/serve"
)

// runGrad measures what adjoint-mode differentiation buys over central
// finite differences: both produce the full 2p-parameter gradient of
// the QAOA objective, but the adjoint reverse pass costs ≈ 4
// simulations total where finite differences cost 4p — so the speedup
// grows linearly with depth, exactly the high-depth regime the paper
// targets. Both paths run on the same simulator (one precomputed
// diagonal) through reused buffers, and the measured gradients are
// cross-checked against each other before timing is reported.
func runGrad(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("grad", flag.ContinueOnError)
	n := fs.Int("n", 16, "qubit count")
	p := fs.Int("p", 12, "QAOA depth (speedup scales with p)")
	reps := fs.Int("reps", 3, "timing repetitions (best-of)")
	backendName := fs.String("backend", "auto", "simulator backend (auto, serial, parallel, soa)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	backend, err := core.ParseBackend(*backendName)
	if err != nil {
		return err
	}

	sim, err := core.New(*n, problems.LABSTerms(*n), core.Options{Backend: backend})
	if err != nil {
		return err
	}
	eng := grad.New(sim)
	// The adjoint path runs through a one-worker evaluation service —
	// the production route for optimizer gradients — so its timing
	// includes the (sub-µs) queue hop; the FD baseline stays on the
	// bare engine, being generous to the baseline.
	svc, err := serve.New([]evaluator.Evaluator{eng}, serve.Options{WorkersPerEvaluator: 1})
	if err != nil {
		return err
	}
	defer svc.Close()
	ctx := context.Background()
	gamma, beta := optimize.TQAInit(*p, 0.75)
	x := optimize.JoinAngles(gamma, beta)
	gradFlat := make([]float64, 2**p)
	gFD := make([]float64, *p)
	bFD := make([]float64, *p)

	// Warm up both paths (buffer pools, page faults), then verify the
	// two gradients agree before timing anything.
	if _, err := svc.EnergyGrad(ctx, x, gradFlat); err != nil {
		return err
	}
	if _, err := eng.FiniteDiffGrad(ctx, gamma, beta, 0, gFD, bFD); err != nil {
		return err
	}
	var maxDiff float64
	for l := 0; l < *p; l++ {
		maxDiff = math.Max(maxDiff, math.Abs(gradFlat[l]-gFD[l]))
		maxDiff = math.Max(maxDiff, math.Abs(gradFlat[*p+l]-bFD[l]))
	}

	tAdj := bestOf(*reps, func() error {
		_, err := svc.EnergyGrad(ctx, x, gradFlat)
		return err
	})
	tFD := bestOf(*reps, func() error {
		_, err := eng.FiniteDiffGrad(ctx, gamma, beta, 0, gFD, bFD)
		return err
	})

	tab := benchutil.NewTable("method", "sims/grad", "time", "time/sim")
	tab.Add("adjoint", "≈3", benchutil.Seconds(tAdj), benchutil.Seconds(tAdj/3))
	nSims := 4**p + 1
	tab.Add("central-fd", fmt.Sprint(nSims), benchutil.Seconds(tFD), benchutil.Seconds(tFD/time.Duration(nSims)))

	fmt.Fprintf(w, "Full 2p-parameter gradient, LABS n=%d p=%d, backend=%v (best of %d)\n", *n, *p, sim.Backend(), *reps)
	tab.Fprint(w)
	fmt.Fprintf(w, "\nspeedup: %.1f× (theory: ~p = %d×); max |Δ| adjoint vs fd: %.2g\n",
		tFD.Seconds()/tAdj.Seconds(), *p, maxDiff)
	return nil
}

// bestOf runs fn reps times and returns the fastest wall-clock,
// panicking on simulator errors (none are reachable with validated
// inputs).
func bestOf(reps int, fn func() error) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			panic(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}
