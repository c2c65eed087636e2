// Command perfbench is the repository's benchmark. It runs one named,
// seeded workload through the qokit façade, checks the outputs off the
// timed path, and prints every metric with its unit and sample count.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload adam_deep --seed 1 --seconds 45 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones of an untraced
// pass. Its setup_s is the median of setupRuns set-ups: the pass's own
// and those of fresh processes of this binary started with
// --setup-only, so that each is the first of its process and pays the
// once-per-process costs such as RouteAuto calibration.
//
// With --trace 1 the process runs the workload untraced and then
// traced, and reports the per-layer metrics of the traced pass, the
// kernel probe, and trace.overhead_frac = 1 − traced/untraced
// evals_per_s. Each of the two passes gets half the window and half the
// samples, so a traced run takes about as long as an untraced one. The
// traced pass's spans are written, once, to
// <spans-dir>/<workload>-seed<seed>.jsonl.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"qokit"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const (
	// minSamples is the fewest request units a window holds, so that at
	// least 10 lie beyond its 90th percentile; --tiny lowers it, and a
	// traced run halves it per pass.
	minSamples     = 100
	tinyMinSamples = 12
	// setupRuns is the number of set-ups whose median is setup_s.
	setupRuns = 5
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects the metrics of the result line and prints the log
// lines before it.
type report struct {
	w         io.Writer
	metrics   map[string]metric
	attempted int64
	failed    int64
}

func (r *report) infof(format string, args ...any) { fmt.Fprintf(r.w, format+"\n", args...) }

// set records a metric for the result line and logs it with a note on
// how it was measured. A non-finite value is a failed operation.
func (r *report) set(name, unit string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.attempted++
		r.failed++
		r.infof("metric %s is not finite (%v); reported as 0", name, v)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.infof("metric %-26s %14.6g %-6s %s", name, v, unit, note)
}

func (r *report) check(c checkResult) {
	r.attempted++
	status := "ok"
	if !c.ok {
		r.failed++
		status = "FAILED"
	}
	r.infof("check %-50s %s: %s", c.name, status, c.detail)
}

func (r *report) count(res *passResult) {
	r.attempted += res.attempted
	r.failed += res.failed
	for _, n := range res.notes {
		r.infof("%s", n)
	}
}

// run parses the command line, runs the workload and prints the
// report. It returns 0 when every operation and check succeeded, 1
// when one failed (the result line is still printed), and 2 when the
// run could not complete (no result line).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, d := range workloadDefs {
		names = append(names, d.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 45, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of an untraced pass; 1: per-layer metrics of a traced pass")
	spansDir := fs.String("spans-dir", filepath.Join(".bench_build", "spans"), "directory the traced pass writes its spans to")
	tiny := fs.Bool("tiny", false, "run test-sized problems")
	setupOnly := fs.Bool("setup-only", false, "time one set-up, print its nanoseconds and exit (the benchmark starts itself this way)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %s, --trace 0 or 1, --seconds > 0\n", strings.Join(names, ", "))
		return 2
	}
	w := def.make(*tiny)
	e := &env{
		seed:       *seed,
		seconds:    time.Duration(*seconds * float64(time.Second)),
		minSamples: minSamples,
		setupOnly:  *setupOnly,
		stack:      facadeStack{},
	}
	if *tiny {
		e.minSamples = tinyMinSamples
	}
	if *trace == 1 {
		e.seconds, e.minSamples = e.seconds/2, e.minSamples/2
	}
	if *setupOnly {
		res, err := w.pass(e)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
			return 2
		}
		res.release()
		fmt.Fprintln(stdout, int64(res.setups[0]))
		return 0
	}

	rep := &report{w: stdout, metrics: map[string]metric{}}
	rep.infof("run workload=%s seed=%d seconds=%g trace=%d min-samples=%d tiny=%t", def.name, *seed, *seconds, *trace, e.minSamples, *tiny)
	rep.infof("run why: %s", def.why)
	rep.infof("run nproc=%d GOMAXPROCS=%d go=%s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, c := range caches() {
		rep.infof("run cache L%d %-11s %d B (cpu0, sysfs)", c.level, c.kind, c.bytes)
	}

	// Set-up time is an end-to-end metric, so only the untraced run
	// times more set-ups than the one each pass needs to reach its
	// window. They run first, while this process is idle.
	var fresh []time.Duration
	if *trace == 0 {
		var err error
		if fresh, err = freshSetups(args, setupRuns-1, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
			return 2
		}
	}
	hostBefore := hostLoopNs()
	base, err := w.pass(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
		return 2
	}
	rep.infof("run host loop %.4f ns/iteration before the pass, %.4f after, on %d goroutines at once",
		hostBefore, hostLoopNs(), runtime.GOMAXPROCS(0))
	rep.count(base)
	for _, c := range w.check(e, base) {
		rep.check(c)
	}
	base.release()

	// CPU use below GOMAXPROCS x wall is time the pass waited: on
	// barriers, on an idle pool, or on a vCPU the host lent elsewhere.
	rep.infof("run cpu %.2f s user+system in a %.2f s window: %.0f %% of GOMAXPROCS x wall, %.3f ms per evaluation",
		base.cpu.Seconds(), base.to.Sub(base.from).Seconds(),
		100*base.cpu.Seconds()/(base.to.Sub(base.from).Seconds()*float64(runtime.GOMAXPROCS(0))),
		ms(base.cpu)/float64(max(base.evals, 1)))
	if *trace == 0 {
		base.setups = append(base.setups, fresh...)
		reportEndToEnd(rep, base)
	} else {
		tr := newTracer()
		te := *e
		te.tr, te.stack = tr, tracedStack{tr: tr}
		traced, err := w.pass(&te)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s (traced): %v\n", def.name, err)
			return 2
		}
		rep.count(traced)
		budget := min(max(e.seconds/20, 10*time.Millisecond), 300*time.Millisecond)
		kernels, err := kernelProbe(rep, traced.probe, budget)
		traced.release()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s kernel probe: %v\n", def.name, err)
			return 2
		}
		reportLayers(rep, tr, base, traced, kernels)
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", def.name, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 2
		}
		rep.infof("trace %d spans written to %s", len(tr.spans), path)
	}
	recordRoutes(rep, w.shapes())
	return rep.finish()
}

// freshSetups times n set-ups, each in a fresh process of this binary
// run with --setup-only and the same arguments, one after another.
func freshSetups(args []string, n int, stderr io.Writer) ([]time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	for i := 0; i < n; i++ {
		var stdout bytes.Buffer
		cmd := exec.Command(exe, append([]string{"--setup-only"}, args...)...)
		cmd.Stdout, cmd.Stderr = &stdout, stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up process %d: %w", i+1, err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(stdout.String()), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("set-up process %d: %w", i+1, err)
		}
		out = append(out, time.Duration(ns))
	}
	return out, nil
}

// hostLoopNs runs a fixed chain of dependent floating-point operations
// on GOMAXPROCS goroutines at once and returns the wall nanoseconds per
// iteration. It touches no memory, so it measures only how fast the
// host runs this process's threads. On a shared host that speed drifts
// over minutes, and two runs are like-for-like only when it agrees.
func hostLoopNs() float64 {
	const iters = 1 << 24
	procs := runtime.GOMAXPROCS(0)
	sink := make([]float64, procs)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := float64(i + 1)
			for k := 0; k < iters; k++ {
				x = x*0.9999999 + 1e-7
			}
			sink[i] = x
		}(i)
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / iters
}

// recordRoutes prints the mixer route RouteAuto settled on for each
// single-node shape the workload ran, read from a fresh simulator of
// that shape (the decision is process-wide per shape).
func recordRoutes(rep *report, ns []int) {
	for _, n := range ns {
		sim, err := qokit.NewSimulatorFromDiagonal(n, make([]float64, 1<<n), qokit.Options{})
		if err != nil {
			rep.infof("route n=%d: %v", n, err)
			continue
		}
		note := ""
		if sim.MixerRoute() == qokit.RouteAuto {
			note = " (not calibrated in this process)"
		}
		rep.infof("route n=%d workers=%d backend=%v: %v%s", n, sim.Workers(), sim.Backend(), sim.MixerRoute(), note)
	}
}

func (r *report) finish() int {
	r.infof("fail_frac %d of %d operations failed", r.failed, r.attempted)
	b, err := json.Marshal(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		r.infof("perfbench: encoding result: %v", err)
		return 2
	}
	fmt.Fprintln(r.w, string(b))
	if r.failed > 0 {
		return 1
	}
	return 0
}

// reportEndToEnd sets the end-to-end metrics of an untraced pass.
func reportEndToEnd(rep *report, res *passResult) {
	setups := millis(res.setups)
	lat := millis(res.lat)
	win := res.to.Sub(res.from)
	p90 := quantile(lat, 0.9)
	rep.set("setup_s", "s", quantile(setups, 0.5)/1e3,
		fmt.Sprintf("median of %d set-ups, each the first of its process; range %.4f–%.4f s", len(setups),
			quantile(setups, 0)/1e3, quantile(setups, 1)/1e3))
	rep.set("evals_per_s", "1/s", float64(res.evals)/win.Seconds(),
		fmt.Sprintf("%d evaluations in a %.2f s window", res.evals, win.Seconds()))
	rep.set("lat_p50_ms", "ms", quantile(lat, 0.5), fmt.Sprintf("n=%d request units", len(lat)))
	rep.set("lat_p90_ms", "ms", p90, fmt.Sprintf("n=%d request units, %d beyond", len(lat), beyond(lat, p90)))
	rep.set("peak_rss_mb", "MiB", res.rssMiB, "peak resident set at the window's end")
}

// reportLayers sets the per-layer metrics from the traced pass's spans
// and counters, the untraced pass's allocation and GC counters (the
// tracer allocates), and the kernel probe.
func reportLayers(rep *report, tr *Tracer, base, traced *passResult, kernels map[string]float64) {
	lo, hi := tr.at(traced.from), tr.at(traced.to)
	tr.mu.Lock()
	var spans []Span
	for _, s := range tr.spans {
		if s.Start >= lo && s.Start < hi {
			spans = append(spans, s)
		}
	}
	comm, cones := tr.comm, tr.cones
	tr.mu.Unlock()

	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	// Queue wait runs from request submit to the start of the evaluator
	// call, per task. The wait before a request's first evaluator call
	// becomes a synthetic serve.queue child, so the request's self time
	// is what the service spends outside the queue and the evaluators.
	var waits []float64
	first := map[int64]int64{}
	byName := map[string][]float64{}
	var busy time.Duration
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], ms(s.dur()))
		if !strings.HasPrefix(s.Name, "evaluator.") {
			continue
		}
		busy += s.dur()
		if r, ok := byID[s.Parent]; ok && r.Name == "serve.request" {
			waits = append(waits, ms(time.Duration(s.Start-r.Start)))
			if f, seen := first[r.ID]; !seen || s.Start < f {
				first[r.ID] = s.Start
			}
		}
	}
	all := spans
	for id, f := range first {
		all = append(all, Span{Name: "serve.queue", ID: -id, Parent: id, Req: byID[id].Req, Start: byID[id].Start, End: f})
	}
	self := selfTimes(all)
	selfOf := func(name string) []float64 {
		var out []float64
		for _, s := range spans {
			if s.Name == name {
				out = append(out, ms(self[s.ID]))
			}
		}
		return out
	}
	count := func(name string) string { return fmt.Sprintf("n=%d spans", len(byName[name])) }
	meanOf := func(name string) float64 { return mean(byName[name]) }
	window := traced.to.Sub(traced.from)

	rep.infof("trace window %.2f s, %d spans in it", window.Seconds(), len(spans))
	for _, k := range []string{"layer", "phase", "mixer", "expect"} {
		rep.set("statevec."+k+"_ms", "ms", kernels["statevec."+k+"_ms"], "kernel probe, median per call")
		rep.set("statevec."+k+"_gbps", "GB/s", kernels["statevec."+k+"_gbps"], "computed bytes / time")
	}
	rep.set("statevec.copy_gbps", "GB/s", kernels["statevec.copy_gbps"], "parallel copy over state-sized arrays, same run")
	rep.set("core.grad_ms", "ms", kernels["core.grad_ms"], "kernel probe, SimulateQAOAGradInto")
	rep.set("core.reverse_ms", "ms", kernels["core.reverse_ms"], "gradient minus forward pass")
	rep.set("core.route_fwht", "flag", kernels["core.route_fwht"], "1 when RouteAuto chose FWHT for the probe shape")

	rep.set("serve.queue_wait_ms.p50", "ms", quantile(waits, 0.5), fmt.Sprintf("n=%d tasks", len(waits)))
	rep.set("serve.queue_wait_ms.p90", "ms", quantile(waits, 0.9), fmt.Sprintf("n=%d tasks", len(waits)))
	rep.set("serve.self_us", "us", 1e3*mean(selfOf("serve.request")), count("serve.request")+", request minus queue wait and evaluator spans")
	rep.set("serve.busy_workers", "count", busy.Seconds()/window.Seconds(), "evaluator span time / window")
	rep.set("serve.peak_workers", "count", float64(traced.peakWorkers), "largest PeakWorkers of the pass's services")
	rep.set("core.energy_ms", "ms", meanOf("evaluator.core.energy"), count("evaluator.core.energy"))
	rep.set("core.outputs_ms", "ms", meanOf("evaluator.core.outputs"), count("evaluator.core.outputs"))
	allocs := 0.0
	if base.evals > 0 {
		allocs = float64(base.mallocs) / float64(base.evals)
	}
	rep.set("process.allocs_per_eval", "count", allocs, fmt.Sprintf("untraced pass: %d mallocs / %d evaluations", base.mallocs, base.evals))
	rep.set("process.gc_pause_ms", "ms", ms(base.gcPause), fmt.Sprintf("untraced pass, total in a %.2f s window", base.to.Sub(base.from).Seconds()))

	acq := byName["registry.acquire"]
	rep.set("registry.acquire_ms.p50", "ms", quantile(acq, 0.5), count("registry.acquire"))
	rep.set("registry.acquire_ms.p90", "ms", quantile(acq, 0.9), count("registry.acquire"))
	hits, misses := traced.reg1.Hits-traced.reg0.Hits, traced.reg1.Misses-traced.reg0.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	rep.set("registry.hit_ratio", "ratio", ratio, fmt.Sprintf("%d hits, %d misses in the window", hits, misses))
	rep.set("registry.precomputes", "count", float64(traced.reg1.Precomputes-traced.reg0.Precomputes), "in the window")
	rep.set("registry.evictions", "count", float64(traced.reg1.Evictions-traced.reg0.Evictions), "in the window")
	rep.set("serve.build_ms", "ms", meanOf("serve.build"), count("serve.build")+", factory New")
	rep.set("serve.builds", "count", float64(len(byName["serve.build"])), "factory New calls in the window")
	rep.set("serve.retires", "count", float64(len(byName["serve.retire"])), "factory Retire calls in the window")

	rep.set("distsim.grad_ms", "ms", meanOf("evaluator.distsim.grad"), count("evaluator.distsim.grad"))
	rep.set("distsim.outputs_ms", "ms", meanOf("evaluator.distsim.outputs"), count("evaluator.distsim.outputs"))
	frac, perEval := 0.0, func(v int64) float64 { return 0 }
	if comm.span > 0 {
		frac = comm.wall.Seconds() / comm.span.Seconds()
	}
	if comm.rankEvals > 0 {
		perEval = func(v int64) float64 { return float64(v) / float64(comm.rankEvals) }
	}
	rep.set("cluster.comm_frac", "ratio", frac, "CommWall growth / distsim evaluator span (includes barrier waits)")
	rep.set("cluster.bytes_per_eval", "B", perEval(comm.bytes), "per rank, exact")
	rep.set("cluster.msgs_per_eval", "count", perEval(comm.msgs), "per rank, exact")
	rep.set("cluster.syncs_per_eval", "count", perEval(comm.syncs), "per rank, exact")

	rep.set("lightcone.build_ms", "ms", meanOf("lightcone.build"), count("lightcone.build")+", NewLightConeFactory (cone extraction)")
	rep.set("lightcone.grad_ms", "ms", meanOf("evaluator.lightcone.grad"), count("evaluator.lightcone.grad"))
	rep.set("lightcone.unique_cones", "count", float64(cones.UniqueCones), fmt.Sprintf("of %d edges", cones.Edges))
	rep.set("lightcone.hit_rate", "ratio", cones.HitRate, "edges served by an already simulated cone")
	rep.set("lightcone.canon_fallbacks", "count", float64(cones.CanonFallbacks), "cones keyed uniquely after the canon budget ran out")

	rep.set("optimize.step_us", "us", 1e3*mean(selfOf("optimize.iter")), count("optimize.iter")+", Adam iteration minus its objective call")

	untraced := float64(base.evals) / base.to.Sub(base.from).Seconds()
	tracedRate := float64(traced.evals) / window.Seconds()
	rep.set("trace.overhead_frac", "ratio", 1-tracedRate/untraced,
		fmt.Sprintf("1 - traced/untraced evals_per_s = 1 - %.4g/%.4g", tracedRate, untraced))
}
