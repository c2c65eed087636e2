package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"qokit/internal/benchutil"
	"qokit/internal/core"
	"qokit/internal/evaluator"
	"qokit/internal/graphs"
	"qokit/internal/lightcone"
	"qokit/internal/optimize"
	"qokit/internal/problems"
	"qokit/internal/serve"
)

// runLandscape scans the p = 1 QAOA energy landscape on a γ × β grid —
// the workload behind the paper's Fig. 3/4 style parameter studies,
// and the canonical batch of many cheap evaluations against one
// precomputed diagonal. The same grid is evaluated twice: with
// point-at-a-time SimulateQAOA (a fresh state vector per point) and
// as one batch request through the evaluation service (FIFO queue →
// workers each bound to one reusable workspace), verifying both agree
// bit for bit and reporting the throughput gap.
func runLandscape(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("landscape", flag.ContinueOnError)
	n := fs.Int("n", 14, "qubit count")
	grid := fs.Int("grid", 24, "grid points per axis (grid² evaluations)")
	workers := fs.Int("workers", 0, "service workers (0 = GOMAXPROCS)")
	backend := fs.String("backend", "statevector", "evaluator: statevector (LABS) or lightcone (random-regular MaxCut)")
	graphN := fs.Int("graphn", 1000, "lightcone: graph vertex count")
	degree := fs.Int("degree", 3, "lightcone: graph degree")
	seed := fs.Int64("seed", 7, "lightcone: graph seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 {
		return fmt.Errorf("landscape: -n %d must be ≥ 1", *n)
	}
	if *grid < 1 {
		return fmt.Errorf("landscape: -grid %d must be ≥ 1", *grid)
	}
	if *backend == "lightcone" {
		return runLandscapeLightCone(w, *graphN, *degree, *seed, *grid, *workers)
	}
	if *backend != "statevector" {
		return fmt.Errorf("landscape: -backend %q must be statevector or lightcone", *backend)
	}

	terms := problems.LABSTerms(*n)
	sim, err := core.New(*n, terms, core.Options{Backend: core.BackendSoA})
	if err != nil {
		return err
	}

	gammas := make([]float64, *grid)
	betas := make([]float64, *grid)
	for i := 0; i < *grid; i++ {
		gammas[i] = math.Pi * float64(i) / float64(*grid)
		betas[i] = math.Pi / 2 * float64(i) / float64(*grid)
	}
	xs := optimize.Grid(gammas, betas)

	// Point at a time: one fresh state buffer per evaluation.
	serialRes := make([]float64, len(xs))
	startSerial := time.Now()
	for i, x := range xs {
		r, err := sim.SimulateQAOA(x[:1], x[1:])
		if err != nil {
			return err
		}
		serialRes[i] = r.Expectation()
	}
	tSerial := time.Since(startSerial)

	// Batched: one request through the evaluation service fans the
	// same grid across its workers, each reusing one workspace.
	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	evals := make([]evaluator.Evaluator, nw)
	for i := range evals {
		evals[i] = sim.NewWorkspace()
	}
	svc, err := serve.New(evals)
	if err != nil {
		return err
	}
	defer svc.Close()
	startBatch := time.Now()
	energies, err := svc.EnergyBatch(context.Background(), xs, nil)
	if err != nil {
		return err
	}
	tBatch := time.Since(startBatch)

	// Every workspace runs its kernels on the simulator's own pool, so
	// each batched energy is the point-at-a-time one bit for bit.
	for i := range energies {
		if energies[i] != serialRes[i] {
			return fmt.Errorf("landscape: batch result %d differs from point-at-a-time (%v vs %v)",
				i, energies[i], serialRes[i])
		}
	}

	best := optimize.ArgMinEnergies(energies)
	fmt.Fprintf(w, "p=1 landscape scan, LABS n=%d, %d×%d grid (%d evaluations, one shared diagonal)\n",
		*n, *grid, *grid, len(xs))
	tab := benchutil.NewTable("path", "total(s)", "µs/point")
	tab.Add("point-at-a-time", benchutil.Seconds(tSerial),
		fmt.Sprintf("%.1f", float64(tSerial.Microseconds())/float64(len(xs))))
	tab.Add("service-batch", benchutil.Seconds(tBatch),
		fmt.Sprintf("%.1f", float64(tBatch.Microseconds())/float64(len(xs))))
	tab.Fprint(w)
	fmt.Fprintf(w, "\nbatched/serial agreement: bit-identical; speedup %.2f×\n", tSerial.Seconds()/tBatch.Seconds())
	fmt.Fprintf(w, "landscape minimum E = %.6f at γ = %.4f, β = %.4f\n",
		energies[best], xs[best][0], xs[best][1])
	return nil
}

// runLandscapeLightCone scans the same p = 1 γ × β grid on the
// light-cone evaluator over random-regular MaxCut — a landscape over
// thousands of vertices, far beyond the 2^n statevector ceiling. The
// grid is evaluated point-at-a-time (each call fans cones across the
// pool) and once more as a batch through the evaluation service,
// verifying both agree bit-for-bit (the cone reduction is
// deterministic) and reporting throughput plus the cone decomposition.
func runLandscapeLightCone(w io.Writer, graphN, degree int, seed int64, grid, workers int) error {
	g, err := graphs.RandomRegular(graphN, degree, seed)
	if err != nil {
		return err
	}
	eng, err := lightcone.New(g, lightcone.Options{Radius: 1, Workers: workers})
	if err != nil {
		return err
	}
	st := eng.Stats()

	gammas := make([]float64, grid)
	betas := make([]float64, grid)
	for i := 0; i < grid; i++ {
		gammas[i] = math.Pi * float64(i) / float64(grid)
		betas[i] = math.Pi / 2 * float64(i) / float64(grid)
	}
	xs := optimize.Grid(gammas, betas)

	serialRes := make([]float64, len(xs))
	startSerial := time.Now()
	for i, x := range xs {
		if serialRes[i], err = eng.Energy(context.Background(), x); err != nil {
			return err
		}
	}
	tSerial := time.Since(startSerial)

	svc, err := serve.New([]evaluator.Evaluator{eng})
	if err != nil {
		return err
	}
	defer svc.Close()
	startBatch := time.Now()
	energies, err := svc.EnergyBatch(context.Background(), xs, nil)
	if err != nil {
		return err
	}
	tBatch := time.Since(startBatch)

	for i := range energies {
		if energies[i] != serialRes[i] {
			return fmt.Errorf("landscape: lightcone batch result %d differs from point-at-a-time (%v vs %v)",
				i, energies[i], serialRes[i])
		}
	}

	best := optimize.ArgMinEnergies(energies)
	fmt.Fprintf(w, "p=1 landscape scan, light-cone MaxCut %d-vertex %d-regular, %d×%d grid (%d evaluations)\n",
		graphN, degree, grid, grid, len(xs))
	fmt.Fprintf(w, "cones: %d edges → %d unique classes (hit rate %.3f), max cone %d qubits\n",
		st.Edges, st.UniqueCones, st.HitRate, st.MaxConeQubits)
	tab := benchutil.NewTable("path", "total(s)", "ms/point")
	tab.Add("point-at-a-time", benchutil.Seconds(tSerial),
		fmt.Sprintf("%.2f", float64(tSerial.Microseconds())/1000/float64(len(xs))))
	tab.Add("service-batch", benchutil.Seconds(tBatch),
		fmt.Sprintf("%.2f", float64(tBatch.Microseconds())/1000/float64(len(xs))))
	tab.Fprint(w)
	// With E = Σ (w/2)⟨ZZ⟩ − W/2, the expected cut is exactly −E.
	fmt.Fprintf(w, "\nlandscape minimum E = %.6f at γ = %.4f, β = %.4f (expected cut %.1f of %d edges)\n",
		energies[best], xs[best][0], xs[best][1],
		-energies[best], st.Edges)
	return nil
}
