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
	"qokit/internal/gatesim"
	"qokit/internal/graphs"
	"qokit/internal/lightcone"
	"qokit/internal/optimize"
	"qokit/internal/problems"
	"qokit/internal/registry"
	"qokit/internal/serve"
	"qokit/internal/statevec"
)

// runOpt reproduces the headline claim ("we reduce the time for a
// typical QAOA parameter optimization by eleven times for n = 26"): a
// full Nelder–Mead optimization of the 2p QAOA parameters on the LABS
// problem, run once on the precomputed-diagonal simulator and once on
// the gate-based baseline, with the identical evaluation budget and
// starting point. The precomputation is paid once; the gate-based
// baseline re-simulates the compiled circuit for every objective
// evaluation — that asymmetry is the entire effect.
func runOpt(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("opt", flag.ContinueOnError)
	n := fs.Int("n", 14, "qubit count (paper: 26)")
	p := fs.Int("p", 6, "QAOA depth")
	evals := fs.Int("evals", 60, "objective-evaluation budget")
	ckpt := fs.String("checkpoint", "", "run the optimization as a durable Adam job with this state file (resumes if present; skips the gate baseline)")
	backend := fs.String("backend", "statevector", "objective: statevector (LABS) or lightcone (random-regular MaxCut)")
	graphN := fs.Int("graphn", 1000, "lightcone: graph vertex count")
	degree := fs.Int("degree", 3, "lightcone: graph degree")
	seed := fs.Int64("seed", 7, "lightcone: graph seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *backend == "lightcone" {
		return runOptLightCone(w, *graphN, *degree, *seed, *p, *evals)
	}
	if *backend != "statevector" {
		return fmt.Errorf("opt: -backend %q must be statevector or lightcone", *backend)
	}

	terms := problems.LABSTerms(*n)
	g0, b0 := optimize.TQAInit(*p, 0.75)
	x0 := optimize.JoinAngles(g0, b0)
	nm := optimize.NMOptions{MaxEvals: *evals}

	// Fast simulator: register the problem once, then serve cheap
	// evaluations through a one-worker registry service — the production
	// optimizer path. The diagonal precompute happens inside the first
	// objective evaluation (the factory's first build acquires it from
	// the registry cache), so the timed window still pays it exactly
	// once, like the old caller-built construction did.
	startFast := time.Now()
	reg := registry.New(registry.Options{})
	key, err := reg.Register(registry.Spec{N: *n, Terms: terms})
	if err != nil {
		return err
	}
	cf := core.NewFactory(*n, terms, core.Options{Backend: core.BackendSoA}, func(ctx context.Context) (core.DiagSource, error) {
		h, err := reg.Acquire(ctx, key)
		if err != nil {
			return nil, err
		}
		return h, nil
	})
	svc, err := serve.NewElastic([]evaluator.Factory{cf}, serve.ElasticOptions{MinWorkers: 1, MaxWorkers: 1})
	if err != nil {
		return err
	}
	defer svc.Close()

	// -checkpoint switches the optimizer to a durable Adam job: complete
	// optimizer state lands in the file after every iteration, an
	// interrupted run resumes from it bit-identical, and a completed run
	// removes it. The gate baseline is skipped — the mode exists to
	// exercise durability, not the speedup comparison.
	if *ckpt != "" {
		res, err := svc.OptimizeAdam(context.Background(), x0, serve.JobOptions{
			Adam:           optimize.AdamOptions{MaxIter: *evals},
			CheckpointPath: *ckpt,
		})
		if err != nil {
			return fmt.Errorf("durable job (checkpoint %s): %w", *ckpt, err)
		}
		tJob := time.Since(startFast)
		fmt.Fprintf(w, "Durable Adam optimization, LABS n=%d p=%d, checkpoint %s\n", *n, *p, *ckpt)
		fmt.Fprintf(w, "best energy %.4f after %d gradient evaluations in %s; state file removed on completion\n",
			res.F, res.Evals, benchutil.Seconds(tJob))
		return nil
	}

	var simErr error
	resFast := optimize.NelderMead(svc.Objective(context.Background(), &simErr), x0, nm)
	if simErr != nil {
		return simErr
	}
	tFast := time.Since(startFast)

	// Gate-based baseline: every evaluation compiles and simulates the
	// full circuit, then measures the objective against the diagonal
	// (computed once — being generous to the baseline).
	diag := make([]float64, 1<<uint(*n))
	compiledEval := problems.LABSTerms(*n)
	for x := range diag {
		diag[x] = compiledEval.Eval(uint64(x))
	}
	startGate := time.Now()
	resGate := optimize.NelderMead(func(x []float64) float64 {
		gg, bb := optimize.SplitAngles(x)
		circ, err := gatesim.BuildQAOA(*n, terms, gg, bb)
		if err != nil {
			panic(err)
		}
		v, err := gatesim.NewEngine().Simulate(circ)
		if err != nil {
			panic(err)
		}
		return statevec.ExpectationDiag(v, diag)
	}, x0, nm)
	tGate := time.Since(startGate)

	tab := benchutil.NewTable("simulator", "evals", "best-energy", "total(s)", "s/eval")
	tab.Add("qokit-soa", fmt.Sprint(resFast.Evals), fmt.Sprintf("%.4f", resFast.F),
		benchutil.Seconds(tFast), benchutil.Seconds(tFast/time.Duration(maxInt(resFast.Evals, 1))))
	tab.Add("gate-based", fmt.Sprint(resGate.Evals), fmt.Sprintf("%.4f", resGate.F),
		benchutil.Seconds(tGate), benchutil.Seconds(tGate/time.Duration(maxInt(resGate.Evals, 1))))

	fmt.Fprintf(w, "Parameter optimization, LABS n=%d p=%d, Nelder–Mead budget %d evals\n", *n, *p, *evals)
	tab.Fprint(w)
	fmt.Fprintf(w, "\nspeedup: %.1f× (paper: 11× at n=26 vs cuQuantum-based gates)\n", tGate.Seconds()/tFast.Seconds())
	if math.Abs(resFast.F-resGate.F) > 1e-6 {
		fmt.Fprintf(w, "note: trajectories diverged (ΔE = %g); both optima reported above\n", resFast.F-resGate.F)
	}
	return nil
}

// runOptLightCone optimizes depth-p QAOA for MaxCut on a random-regular
// graph through the light-cone evaluator — the regime the statevector
// path cannot reach at all (a 1000-vertex diagonal would need 2^1000
// entries). The cone radius equals p so the reduction is exact, and the
// evaluation service drives the engine through the same Objective
// plumbing as the statevector run; there is no gate baseline because no
// full-state simulator of any kind can serve as one at this size.
func runOptLightCone(w io.Writer, graphN, degree int, seed int64, p, evals int) error {
	g, err := graphs.RandomRegular(graphN, degree, seed)
	if err != nil {
		return err
	}
	start := time.Now()
	eng, err := lightcone.New(g, lightcone.Options{Radius: p})
	if err != nil {
		return err
	}
	st := eng.Stats()
	svc, err := serve.New([]evaluator.Evaluator{eng})
	if err != nil {
		return err
	}
	defer svc.Close()

	g0, b0 := optimize.TQAInit(p, 0.75)
	x0 := optimize.JoinAngles(g0, b0)
	var simErr error
	res := optimize.NelderMead(svc.Objective(context.Background(), &simErr),
		x0, optimize.NMOptions{MaxEvals: evals})
	if simErr != nil {
		return simErr
	}
	total := time.Since(start)

	fmt.Fprintf(w, "Parameter optimization, light-cone MaxCut %d-vertex %d-regular, p=%d, Nelder–Mead budget %d evals\n",
		graphN, degree, p, evals)
	fmt.Fprintf(w, "cones: %d edges → %d unique classes (hit rate %.3f), max cone %d qubits\n",
		st.Edges, st.UniqueCones, st.HitRate, st.MaxConeQubits)
	tab := benchutil.NewTable("simulator", "evals", "best-energy", "total(s)", "s/eval")
	tab.Add("qokit-lightcone", fmt.Sprint(res.Evals), fmt.Sprintf("%.4f", res.F),
		benchutil.Seconds(total), benchutil.Seconds(total/time.Duration(maxInt(res.Evals, 1))))
	tab.Fprint(w)
	// With E = Σ (w/2)⟨ZZ⟩ − W/2, the expected cut is exactly −E.
	fmt.Fprintf(w, "\nbest expected cut %.1f of %d edges (ratio %.4f)\n",
		-res.F, st.Edges, -res.F/float64(st.Edges))
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
