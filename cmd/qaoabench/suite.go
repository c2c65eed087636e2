package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"qokit/internal/benchutil"
	"qokit/internal/cluster"
	"qokit/internal/core"
	"qokit/internal/distsim"
	"qokit/internal/evaluator"
	"qokit/internal/grad"
	"qokit/internal/graphs"
	"qokit/internal/lightcone"
	"qokit/internal/optimize"
	"qokit/internal/problems"
	"qokit/internal/registry"
	"qokit/internal/serve"
	"qokit/internal/sweep"
)

// suiteReport is the machine-readable benchmark trajectory: one fixed
// workload per hot path (forward, adjoint gradient, batched sweep,
// distributed forward, distributed gradient) at pinned n/p, so
// successive baselines of BENCH_qaoa.json are comparable point for
// point. Timing is host-dependent; the committed baseline records the
// trajectory's starting point and CI uploads a fresh file per run.
type suiteReport struct {
	Schema     string           `json:"schema"`
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Config     suiteConfig      `json:"config"`
	Benchmarks []suiteBenchmark `json:"benchmarks"`
}

type suiteConfig struct {
	N      int `json:"n"`
	P      int `json:"p"`
	Ranks  int `json:"ranks"`
	Points int `json:"sweep_points"`
	Reps   int `json:"reps"`
	// KernelN is the qubit count of the kernel-speed rows
	// (unfused_layer, fused_layer) — larger than N so the state
	// outgrows cache and the rows measure memory traffic, the regime
	// the fused kernels target.
	KernelN int `json:"kernel_n"`
	// LightConeN is the vertex count of the light-cone rows
	// (lightcone_energy, lightcone_grad) — a 3-regular MaxCut instance
	// far beyond any statevector, whose cost is set by the cone
	// decomposition rather than 2^n.
	LightConeN int `json:"lightcone_n"`
}

type suiteBenchmark struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	P    int    `json:"p"`
	// Ranks is set only for the distributed workloads.
	Ranks int `json:"ranks,omitempty"`
	// Points is set only for the batched sweep.
	Points int `json:"points,omitempty"`
	// Workers is the kernel-pool size behind the single-node rows —
	// the thread count the timing actually ran at, which the global
	// gomaxprocs field does not pin down per row.
	Workers int `json:"workers,omitempty"`
	// SecondsPerOp is the median wall time of one operation (one
	// simulation, one gradient, one full batch, …).
	SecondsPerOp float64 `json:"seconds_per_op"`
	// SecondsPerUnit divides the op over its inner unit where one
	// exists (per sweep point, per gradient component).
	SecondsPerUnit float64 `json:"seconds_per_unit,omitempty"`
	// ModeledNetSeconds is the per-rank modeled fabric time for the
	// distributed workloads (Polaris-like model).
	ModeledNetSeconds float64 `json:"modeled_net_seconds,omitempty"`
	// BytesPerRank records the distributed workloads' per-rank traffic
	// — the machine-independent part of the trajectory.
	BytesPerRank int64 `json:"bytes_per_rank,omitempty"`
	// CanonFallbacks is set (possibly to an explicit zero) on the
	// light-cone rows: the count of cones keyed uniquely after a
	// canonical-form budget blowout. Nonzero means isomorphic cones
	// stopped deduplicating — a cache-quality regression invisible in
	// wall time at small radii, so the baseline comparison gates on it
	// like traffic: machine-independent, any increase fails.
	CanonFallbacks *int `json:"canon_fallbacks,omitempty"`
}

// runSuite measures the five benchmark workloads at fixed sizes and
// emits the trajectory (text table, or JSON with -json / -out for the
// committed BENCH_qaoa.json baseline and the CI artifact).
func runSuite(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("suite", flag.ContinueOnError)
	n := fs.Int("n", 14, "qubit count (fixed across workloads)")
	p := fs.Int("p", 6, "QAOA depth")
	kernelN := fs.Int("kerneln", 20, "qubit count for the kernel-speed rows")
	lcN := fs.Int("lcn", 1000, "vertex count for the light-cone rows (3-regular MaxCut)")
	ranks := fs.Int("ranks", 4, "rank count for the distributed workloads")
	points := fs.Int("points", 64, "batch size for the sweep workload")
	reps := fs.Int("reps", 3, "timing repetitions (median)")
	asJSON := fs.Bool("json", false, "emit the report as JSON on stdout")
	out := fs.String("out", "", "also write the JSON report to this file (e.g. BENCH_qaoa.json)")
	baseline := fs.String("baseline", "", "committed baseline JSON to diff against; regressions fail the run")
	maxRatio := fs.Float64("maxratio", 4, "fail when a workload is this many times slower than the baseline (timing term of -baseline)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	report := suiteReport{
		Schema:     "qaoabench/suite/v1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config:     suiteConfig{N: *n, P: *p, Ranks: *ranks, Points: *points, Reps: *reps, KernelN: *kernelN, LightConeN: *lcN},
	}
	terms := problems.LABSTerms(*n)
	gamma, beta := optimize.TQAInit(*p, 0.75)
	model := cluster.DefaultNetworkModel()

	// Forward: one simulation through a reused state buffer.
	sim, err := core.New(*n, terms, core.Options{})
	if err != nil {
		return err
	}
	res := sim.NewResult()
	if err := sim.SimulateQAOAInto(res, gamma, beta); err != nil {
		return err
	}
	tFwd, _ := benchutil.TimeRepeat(*reps, func() {
		if err := sim.SimulateQAOAInto(res, gamma, beta); err != nil {
			panic(err)
		}
	})
	report.Benchmarks = append(report.Benchmarks, suiteBenchmark{
		Name: "forward", N: *n, P: *p, Workers: sim.Workers(), SecondsPerOp: tFwd.Seconds(),
	})

	// Gradient: one exact 2p-component adjoint gradient through a
	// one-worker evaluation service (the production optimizer path).
	ctx := context.Background()
	x := optimize.JoinAngles(gamma, beta)
	gFlat := make([]float64, 2**p)
	gsvc, err := serve.New([]evaluator.Evaluator{grad.New(sim)}, serve.Options{WorkersPerEvaluator: 1})
	if err != nil {
		return err
	}
	defer gsvc.Close()
	if _, err := gsvc.EnergyGrad(ctx, x, gFlat); err != nil {
		return err
	}
	tGrad, _ := benchutil.TimeRepeat(*reps, func() {
		if _, err := gsvc.EnergyGrad(ctx, x, gFlat); err != nil {
			panic(err)
		}
	})
	report.Benchmarks = append(report.Benchmarks, suiteBenchmark{
		Name: "grad", N: *n, P: *p, Workers: sim.Workers(),
		SecondsPerOp:   tGrad.Seconds(),
		SecondsPerUnit: tGrad.Seconds() / float64(2**p),
	})

	// Sweep: one batch request through the evaluation service over the
	// concurrent engine, reused buffers.
	seng := sweep.New(sim, sweep.Options{})
	ssvc, err := serve.New([]evaluator.Evaluator{seng}, serve.Options{})
	if err != nil {
		return err
	}
	defer ssvc.Close()
	xs := make([][]float64, *points)
	for i := range xs {
		xi := optimize.JoinAngles(gamma, beta)
		xi[0] += 0.01 * float64(i)
		xs[i] = xi
	}
	sres, err := ssvc.EnergyBatch(ctx, xs, nil)
	if err != nil {
		return err
	}
	tSweep, _ := benchutil.TimeRepeat(*reps, func() {
		if _, err := ssvc.EnergyBatch(ctx, xs, sres); err != nil {
			panic(err)
		}
	})
	report.Benchmarks = append(report.Benchmarks, suiteBenchmark{
		Name: "sweep", N: *n, P: *p, Points: *points, Workers: ssvc.Workers(),
		SecondsPerOp:   tSweep.Seconds(),
		SecondsPerUnit: tSweep.Seconds() / float64(*points),
	})

	// Registry cache hit: the same batch workload through a problem-
	// registry service. The cold batch pays the single diagonal
	// precompute; every warm repetition must perform zero precompute
	// work, asserted in-run against the registry's Precomputes counter —
	// the tentpole property of the registered-problem layer, gated here
	// so a regression that silently re-precomputes per build fails the
	// suite even before timing moves.
	reg := registry.New(registry.Options{})
	rkey, err := reg.Register(registry.Spec{N: *n, Terms: terms})
	if err != nil {
		return err
	}
	rcf := core.NewFactory(*n, core.Options{}, func(ctx context.Context) (core.DiagSource, error) {
		h, err := reg.Acquire(ctx, rkey)
		if err != nil {
			return nil, err
		}
		return h, nil
	})
	rsvc, err := serve.NewElastic([]evaluator.Factory{sweep.NewFactory(rcf, sweep.Options{})},
		serve.ElasticOptions{MinWorkers: 1, MaxWorkers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return err
	}
	defer rsvc.Close()
	if _, err := rsvc.EnergyBatch(ctx, xs, sres); err != nil { // cold: the one precompute
		return err
	}
	tReg, _ := benchutil.TimeRepeat(*reps, func() {
		if _, err := rsvc.EnergyBatch(ctx, xs, sres); err != nil {
			panic(err)
		}
	})
	if st := reg.Stats(); st.Precomputes != 1 {
		return fmt.Errorf("suite: registry_cache_hit ran %d diagonal precomputes across warm repetitions, want exactly 1 (cold)", st.Precomputes)
	}
	report.Benchmarks = append(report.Benchmarks, suiteBenchmark{
		Name: "registry_cache_hit", N: *n, P: *p, Points: *points, Workers: rsvc.LiveWorkers(),
		SecondsPerOp:   tReg.Seconds(),
		SecondsPerUnit: tReg.Seconds() / float64(*points),
	})

	// Kernel speed: one p-layer evolution at the larger kernelN over
	// the default (SoA) backend — a separate phase pass + tiled mixer
	// (the SeparatePhase ablation), and the default fused layer (phase
	// folded into the first block of the tiled F = 2 mixer). A
	// synthetic diagonal keeps setup cheap at the larger size; the
	// evolution cost does not depend on the diagonal's values.
	kdiag := make([]float64, 1<<uint(*kernelN))
	for i := range kdiag {
		kdiag[i] = float64((i*2654435761)%31) - 15
	}
	for _, kv := range []struct {
		name string
		opts core.Options
	}{
		{"unfused_layer", core.Options{SeparatePhase: true}},
		{"fused_layer", core.Options{}},
	} {
		ksim, err := core.NewFromDiagonal(*kernelN, kdiag, kv.opts)
		if err != nil {
			return err
		}
		kres := ksim.NewResult()
		if err := ksim.SimulateQAOAInto(kres, gamma, beta); err != nil {
			return err
		}
		tK, _ := benchutil.TimeRepeat(*reps, func() {
			if err := ksim.SimulateQAOAInto(kres, gamma, beta); err != nil {
				panic(err)
			}
		})
		report.Benchmarks = append(report.Benchmarks, suiteBenchmark{
			Name: kv.name, N: *kernelN, P: *p, Workers: ksim.Workers(),
			SecondsPerOp:   tK.Seconds(),
			SecondsPerUnit: tK.Seconds() / float64(*p),
		})
	}

	// Light-cone MaxCut: one energy and one p=2 adjoint gradient over a
	// radius-2 cone decomposition of a 3-regular instance whose vertex
	// count dwarfs any statevector — the per-op cost is set by the
	// handful of unique cone classes, not 2^n, so the row stays flat as
	// -lcn grows. N records the vertex count, not a qubit count.
	lcGraph, err := graphs.RandomRegular(*lcN, 3, 7)
	if err != nil {
		return err
	}
	lcEng, err := lightcone.New(lcGraph, lightcone.Options{Radius: 2})
	if err != nil {
		return err
	}
	lcX := []float64{0.4, 0.2, 0.55, 0.3}
	lcGrad := make([]float64, len(lcX))
	if _, err := lcEng.Energy(ctx, lcX); err != nil {
		return err
	}
	tLCE, _ := benchutil.TimeRepeat(*reps, func() {
		if _, err := lcEng.Energy(ctx, lcX); err != nil {
			panic(err)
		}
	})
	lcFallbacks := lcEng.Stats().CanonFallbacks
	report.Benchmarks = append(report.Benchmarks, suiteBenchmark{
		Name: "lightcone_energy", N: *lcN, P: 2, SecondsPerOp: tLCE.Seconds(),
		CanonFallbacks: &lcFallbacks,
	})
	tLCG, _ := benchutil.TimeRepeat(*reps, func() {
		if _, err := lcEng.EnergyGrad(ctx, lcX, lcGrad); err != nil {
			panic(err)
		}
	})
	report.Benchmarks = append(report.Benchmarks, suiteBenchmark{
		Name: "lightcone_grad", N: *lcN, P: 2,
		SecondsPerOp:   tLCG.Seconds(),
		SecondsPerUnit: tLCG.Seconds() / float64(len(lcX)),
		CanonFallbacks: &lcFallbacks,
	})

	// Distributed forward: full sharded pipeline. Each precision
	// variant's forward and grad workloads share one Options value, so
	// the pair cannot drift apart structurally (harnesses that build
	// the two option sets independently should cross-check them with
	// distsim.ValidateEnginePair instead).
	dist64opts := distsim.Options{Ranks: *ranks, Algo: cluster.Transpose}
	var dres *distsim.Result
	tDist, _ := benchutil.TimeRepeat(*reps, func() {
		var err error
		dres, err = distsim.SimulateQAOA(ctx, *n, terms, gamma, beta, dist64opts)
		if err != nil {
			panic(err)
		}
	})
	perRankFwd := dres.Comm.BytesSent / int64(*ranks)
	report.Benchmarks = append(report.Benchmarks, suiteBenchmark{
		Name: "distributed_forward", N: *n, P: *p, Ranks: *ranks,
		SecondsPerOp:      tDist.Seconds(),
		BytesPerRank:      perRankFwd,
		ModeledNetSeconds: perRankCounters(dres.Comm, *ranks).ModeledTime(model).Seconds(),
	})

	// Distributed gradient: sharded adjoint through a one-worker
	// service over a reused engine lease.
	deng, err := distsim.NewGradEngine(*n, terms, dist64opts)
	if err != nil {
		return err
	}
	dsvc, err := serve.New([]evaluator.Evaluator{deng}, serve.Options{WorkersPerEvaluator: 1})
	if err != nil {
		return err
	}
	defer dsvc.Close()
	if _, err := dsvc.EnergyGrad(ctx, x, gFlat); err != nil {
		return err
	}
	before := deng.Counters()
	tDGrad, _ := benchutil.TimeRepeat(*reps, func() {
		if _, err := dsvc.EnergyGrad(ctx, x, gFlat); err != nil {
			panic(err)
		}
	})
	perRankGrad := perRankDelta(deng.Counters(), before, *reps, *ranks)
	report.Benchmarks = append(report.Benchmarks, suiteBenchmark{
		Name: "distributed_grad", N: *n, P: *p, Ranks: *ranks,
		SecondsPerOp:      tDGrad.Seconds(),
		BytesPerRank:      perRankGrad.BytesSent,
		ModeledNetSeconds: perRankGrad.ModeledTime(model).Seconds(),
	})

	// Distributed §V-B memory representations: the same forward and
	// gradient workloads over float32 shards (half the bytes/rank on
	// the wire) and over the uint16-quantized diagonal (exact and
	// gradient-only — its traffic and results track the float64 rows).
	// One shared Options value per variant keeps each forward/grad
	// pair on the same numeric contract.
	f32opts := distsim.Options{Ranks: *ranks, Algo: cluster.Transpose, Precision: distsim.PrecisionFloat32}
	var dres32 *distsim.Result
	tDist32, _ := benchutil.TimeRepeat(*reps, func() {
		var err error
		dres32, err = distsim.SimulateQAOA(ctx, *n, terms, gamma, beta, f32opts)
		if err != nil {
			panic(err)
		}
	})
	report.Benchmarks = append(report.Benchmarks, suiteBenchmark{
		Name: "distributed_forward_float32", N: *n, P: *p, Ranks: *ranks,
		SecondsPerOp:      tDist32.Seconds(),
		BytesPerRank:      dres32.Comm.BytesSent / int64(*ranks),
		ModeledNetSeconds: perRankCounters(dres32.Comm, *ranks).ModeledTime(model).Seconds(),
	})

	qopts := distsim.Options{Ranks: *ranks, Algo: cluster.Transpose, Quantize: true}
	for _, pv := range []struct {
		name string
		opts distsim.Options
	}{
		{"distributed_grad_float32", f32opts},
		{"distributed_grad_quantized", qopts},
	} {
		peng, err := distsim.NewGradEngine(*n, terms, pv.opts)
		if err != nil {
			return err
		}
		psvc, err := serve.New([]evaluator.Evaluator{peng}, serve.Options{WorkersPerEvaluator: 1})
		if err != nil {
			return err
		}
		if _, err := psvc.EnergyGrad(ctx, x, gFlat); err != nil {
			psvc.Close()
			return err
		}
		before := peng.Counters()
		tP, _ := benchutil.TimeRepeat(*reps, func() {
			if _, err := psvc.EnergyGrad(ctx, x, gFlat); err != nil {
				panic(err)
			}
		})
		perRank := perRankDelta(peng.Counters(), before, *reps, *ranks)
		psvc.Close()
		report.Benchmarks = append(report.Benchmarks, suiteBenchmark{
			Name: pv.name, N: *n, P: *p, Ranks: *ranks,
			SecondsPerOp:      tP.Seconds(),
			BytesPerRank:      perRank.BytesSent,
			ModeledNetSeconds: perRank.ModeledTime(model).Seconds(),
		})
	}

	// Gather-free distributed outputs: CVaR via the k-way threshold
	// reduction and k-shot two-stage sampling, both over quantized
	// shards (the representation whose point is never gathering) —
	// evolution included, so the rows track the full serving cost of
	// one output request.
	outSpecs := []struct {
		name string
		spec evaluator.OutputSpec
	}{
		{"distributed_cvar", evaluator.OutputSpec{CVaRAlphas: []float64{0.5, 0.1, 0.02}}},
		{"distributed_sample", evaluator.OutputSpec{Shots: 1024, Seed: 1}},
	}
	oeng, err := distsim.NewGradEngine(*n, terms, qopts)
	if err != nil {
		return err
	}
	for _, ws := range outSpecs {
		if _, err := oeng.Outputs(ctx, gamma, beta, ws.spec); err != nil {
			return err
		}
		before := oeng.Counters()
		tO, _ := benchutil.TimeRepeat(*reps, func() {
			if _, err := oeng.Outputs(ctx, gamma, beta, ws.spec); err != nil {
				panic(err)
			}
		})
		perRank := perRankDelta(oeng.Counters(), before, *reps, *ranks)
		report.Benchmarks = append(report.Benchmarks, suiteBenchmark{
			Name: ws.name, N: *n, P: *p, Ranks: *ranks,
			SecondsPerOp:      tO.Seconds(),
			BytesPerRank:      perRank.BytesSent,
			ModeledNetSeconds: perRank.ModeledTime(model).Seconds(),
		})
	}

	if *out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
		if *baseline != "" {
			// Keep stdout valid JSON: the comparison's verdict arrives
			// through the error, its table is suppressed.
			return compareBaseline(io.Discard, report, *baseline, *maxRatio)
		}
		return nil
	}
	tab := benchutil.NewTable("benchmark", "n", "p", "K", "W", "time/op", "bytes/rank", "modeled-net")
	for _, b := range report.Benchmarks {
		k := ""
		if b.Ranks > 0 {
			k = fmt.Sprint(b.Ranks)
		}
		workers := ""
		if b.Workers > 0 {
			workers = fmt.Sprint(b.Workers)
		}
		net := ""
		if b.ModeledNetSeconds > 0 {
			net = fmt.Sprintf("%.3g", b.ModeledNetSeconds)
		}
		bytes := ""
		if b.BytesPerRank > 0 {
			bytes = fmt.Sprint(b.BytesPerRank)
		}
		tab.Add(b.Name, fmt.Sprint(b.N), fmt.Sprint(b.P), k, workers, fmt.Sprintf("%.3g", b.SecondsPerOp), bytes, net)
	}
	fmt.Fprintf(w, "Benchmark suite, LABS n=%d p=%d (median of %d)\n", *n, *p, *reps)
	tab.Fprint(w)
	fmt.Fprintln(w, "\nRegenerate the committed baseline with: qaoabench suite -json -out BENCH_qaoa.json")
	if *baseline != "" {
		return compareBaseline(w, report, *baseline, *maxRatio)
	}
	return nil
}

// perRankCounters averages group totals over the rank count.
func perRankCounters(total cluster.Counters, ranks int) cluster.Counters {
	return perRankDelta(total, cluster.Counters{}, 1, ranks)
}

// perRankDelta averages the counter growth of evals evaluations over
// the rank count — the per-evaluation, per-rank traffic of an engine
// whose group counters accumulate across calls.
func perRankDelta(after, before cluster.Counters, evals, ranks int) cluster.Counters {
	div := int64(evals) * int64(ranks)
	return cluster.Counters{
		BytesSent: (after.BytesSent - before.BytesSent) / div,
		Messages:  (after.Messages - before.Messages) / div,
		Syncs:     (after.Syncs - before.Syncs) / div,
	}
}
