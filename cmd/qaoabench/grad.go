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
	backendName := fs.String("backend", "auto", "simulator backend: auto, serial (python), soa (c, nbcuda, gpu; parallel is an alias)")
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
	// The adjoint path runs through a one-worker evaluation service over
	// one workspace — the production route for optimizer gradients — so
	// its timing includes the (sub-µs) queue hop; the FD baseline calls
	// the simulator directly on one reused state, being generous to the
	// baseline.
	svc, err := serve.New([]evaluator.Evaluator{sim.NewWorkspace()})
	if err != nil {
		return err
	}
	defer svc.Close()
	fdState := sim.NewResult()
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
	if _, err := finiteDiffGrad(ctx, sim, fdState, gamma, beta, 0, gFD, bFD); err != nil {
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
		_, err := finiteDiffGrad(ctx, sim, fdState, gamma, beta, 0, gFD, bFD)
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

// finiteDiffGrad evaluates the gradient by central finite differences,
// 4p full simulations evolved in the one state buffer r, and returns
// the center energy. step ≤ 0 selects 1e-6. Cancellation is honored
// between the 4p+1 simulations.
func finiteDiffGrad(ctx context.Context, sim *core.Simulator, r *core.Result, gamma, beta []float64, step float64, gradGamma, gradBeta []float64) (float64, error) {
	if len(gamma) != len(beta) {
		return 0, fmt.Errorf("grad: len(gamma)=%d != len(beta)=%d", len(gamma), len(beta))
	}
	if len(gradGamma) != len(gamma) || len(gradBeta) != len(beta) {
		return 0, fmt.Errorf("grad: gradient storage lengths (%d, %d) do not match depth p=%d",
			len(gradGamma), len(gradBeta), len(gamma))
	}
	if step <= 0 {
		step = 1e-6
	}
	// Perturb copies so the caller's schedules are never modified.
	g := append([]float64(nil), gamma...)
	b := append([]float64(nil), beta...)
	eval := func() (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if err := sim.SimulateQAOAInto(r, g, b); err != nil {
			return 0, err
		}
		return r.Expectation(), nil
	}
	energy, err := eval()
	if err != nil {
		return 0, err
	}
	for _, half := range []struct {
		ang  []float64
		grad []float64
	}{{g, gradGamma}, {b, gradBeta}} {
		for l := range half.ang {
			orig := half.ang[l]
			half.ang[l] = orig + step
			ep, err := eval()
			if err != nil {
				return 0, err
			}
			half.ang[l] = orig - step
			em, err := eval()
			if err != nil {
				return 0, err
			}
			half.ang[l] = orig
			half.grad[l] = (ep - em) / (2 * step)
		}
	}
	return energy, nil
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
