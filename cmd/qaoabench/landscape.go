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
	"qokit/internal/graphs"
	"qokit/internal/lightcone"
	"qokit/internal/problems"
	"qokit/internal/serve"
	"qokit/internal/sweep"
)

// runLandscape scans the p = 1 QAOA energy landscape on a γ × β grid —
// the workload behind the paper's Fig. 3/4 style parameter studies,
// and the canonical batch of many cheap evaluations against one
// precomputed diagonal. The same grid is evaluated twice: with
// point-at-a-time SimulateQAOA (a fresh state vector per point) and
// as one batch request through the evaluation service (FIFO queue →
// sweep-engine workers with per-worker reusable buffers), verifying
// both agree and reporting the throughput gap.
func runLandscape(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("landscape", flag.ContinueOnError)
	n := fs.Int("n", 14, "qubit count")
	grid := fs.Int("grid", 24, "grid points per axis (grid² evaluations)")
	workers := fs.Int("workers", 0, "sweep workers (0 = GOMAXPROCS)")
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
	points := sweep.Grid(gammas, betas)

	// Point at a time: the pre-engine hot path, one fresh state buffer
	// per evaluation.
	serialRes := make([]float64, len(points))
	startSerial := time.Now()
	for i, pt := range points {
		r, err := sim.SimulateQAOA(pt.Gamma, pt.Beta)
		if err != nil {
			return err
		}
		serialRes[i] = r.Expectation()
	}
	tSerial := time.Since(startSerial)

	// Batched: one request through the evaluation service fans the
	// same grid across the sweep-engine workers, each reusing one
	// buffer.
	eng := sweep.New(sim, sweep.Options{Workers: *workers})
	svc, err := serve.New([]evaluator.Evaluator{eng}, serve.Options{WorkersPerEvaluator: *workers})
	if err != nil {
		return err
	}
	defer svc.Close()
	xs := make([][]float64, len(points))
	for i, pt := range points {
		xs[i] = []float64{pt.Gamma[0], pt.Beta[0]}
	}
	startBatch := time.Now()
	energies, err := svc.EnergyBatch(context.Background(), xs, nil)
	if err != nil {
		return err
	}
	tBatch := time.Since(startBatch)

	var maxDiff, scale float64
	for i := range energies {
		if d := math.Abs(energies[i] - serialRes[i]); d > maxDiff {
			maxDiff = d
		}
		if a := math.Abs(serialRes[i]); a > scale {
			scale = a
		}
	}
	// The engine's workers reduce on single-worker kernel views, so on
	// multi-core machines the expectation sums may differ from the
	// pooled point-at-a-time reduction by reassociation roundoff. That
	// grows with 2^n and the energy scale, hence a relative bound —
	// still orders of magnitude below any landscape feature.
	if maxDiff > 1e-9*math.Max(1, scale) {
		return fmt.Errorf("landscape: batched results deviate from point-at-a-time by %g", maxDiff)
	}

	best := sweep.ArgMinEnergies(energies)
	fmt.Fprintf(w, "p=1 landscape scan, LABS n=%d, %d×%d grid (%d evaluations, one shared diagonal)\n",
		*n, *grid, *grid, len(points))
	tab := benchutil.NewTable("path", "total(s)", "µs/point")
	tab.Add("point-at-a-time", benchutil.Seconds(tSerial),
		fmt.Sprintf("%.1f", float64(tSerial.Microseconds())/float64(len(points))))
	tab.Add("service-batch", benchutil.Seconds(tBatch),
		fmt.Sprintf("%.1f", float64(tBatch.Microseconds())/float64(len(points))))
	tab.Fprint(w)
	fmt.Fprintf(w, "\nbatched/serial agreement: max |Δ| = %.2g; speedup %.2f×\n", maxDiff, tSerial.Seconds()/tBatch.Seconds())
	fmt.Fprintf(w, "landscape minimum E = %.6f at γ = %.4f, β = %.4f\n",
		energies[best], points[best].Gamma[0], points[best].Beta[0])
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
	points := sweep.Grid(gammas, betas)
	xs := make([][]float64, len(points))
	for i, pt := range points {
		xs[i] = []float64{pt.Gamma[0], pt.Beta[0]}
	}

	serialRes := make([]float64, len(points))
	startSerial := time.Now()
	for i, x := range xs {
		if serialRes[i], err = eng.Energy(context.Background(), x); err != nil {
			return err
		}
	}
	tSerial := time.Since(startSerial)

	svc, err := serve.New([]evaluator.Evaluator{eng}, serve.Options{})
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

	best := sweep.ArgMinEnergies(energies)
	fmt.Fprintf(w, "p=1 landscape scan, light-cone MaxCut %d-vertex %d-regular, %d×%d grid (%d evaluations)\n",
		graphN, degree, grid, grid, len(points))
	fmt.Fprintf(w, "cones: %d edges → %d unique classes (hit rate %.3f), max cone %d qubits\n",
		st.Edges, st.UniqueCones, st.HitRate, st.MaxConeQubits)
	tab := benchutil.NewTable("path", "total(s)", "ms/point")
	tab.Add("point-at-a-time", benchutil.Seconds(tSerial),
		fmt.Sprintf("%.2f", float64(tSerial.Microseconds())/1000/float64(len(points))))
	tab.Add("service-batch", benchutil.Seconds(tBatch),
		fmt.Sprintf("%.2f", float64(tBatch.Microseconds())/1000/float64(len(points))))
	tab.Fprint(w)
	// With E = Σ (w/2)⟨ZZ⟩ − W/2, the expected cut is exactly −E.
	fmt.Fprintf(w, "\nlandscape minimum E = %.6f at γ = %.4f, β = %.4f (expected cut %.1f of %d edges)\n",
		energies[best], points[best].Gamma[0], points[best].Beta[0],
		-energies[best], st.Edges)
	return nil
}
