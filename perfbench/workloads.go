package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"qokit"
)

// workload is one benchmark workload.
type workload interface {
	// pass times one set-up and then runs one measured window (only the
	// set-up when e.setupOnly is set).
	pass(e *env) (*passResult, error)
	// check verifies the outputs of the pass that just ran, off the
	// timed path, while the pass still holds its registry state.
	check(e *env, res *passResult) []checkResult
	// shapes lists the single-node qubit counts the workload runs, for
	// the mixer-route record.
	shapes() []int
}

// checkResult is one output check; each counts as one operation.
type checkResult struct {
	name   string
	ok     bool
	detail string
}

func checkErr(name string, err error) checkResult {
	return checkResult{name: name, detail: err.Error()}
}

func checkTol(name string, err, tol float64) checkResult {
	return checkResult{name: name, ok: err <= tol, detail: fmt.Sprintf("relative error %.3g (tolerance %g)", err, tol)}
}

type workloadDef struct {
	name string
	why  string
	make func(tiny bool) workload
}

// workloadDefs lists the workloads with the reason each exists. The
// same reasons, shortened, are the "why" entries of BENCHMARK.json.
// landscape runs by name but is left out of BENCHMARK.json: all its work
// is on the one worker the default pool keeps, so its speed follows the
// speed the host lends one vCPU. Over ten seeded 20 s runs on a shared
// 2-vCPU host its evals_per_s and lat_p50_ms spread by 37 % and 41 % of
// their medians (interquartile range), beyond the benchmark's bounds.
var workloadDefs = []workloadDef{
	{
		name: "adam_deep",
		why: "the paper's use case: Adam on LABS n=18, p=8 from the TQA start, one EnergyGrad in flight; " +
			"ket, adjoint and diagonal (> 10 MiB) outgrow L2 so the kernels do nearly all the work, " +
			"n >= 18 puts RouteAuto calibration in play, and the queue and registry sit idle after set-up",
		make: func(tiny bool) workload {
			if tiny {
				return &adamDeep{n: 8, p: 2}
			}
			return &adamDeep{n: 18, p: 8}
		},
	},
	{
		name: "landscape",
		why: "a 64x64 (gamma, beta) grid of LABS n=12, p=1 as 16x16-point EnergyBatch tiles: each point is " +
			"~0.25 ms of cache-resident work below the kernel pool's split threshold, so the serve pool's " +
			"point fan-out is the only parallelism and per-task dispatch is a visible share; n < 18 keeps " +
			"it on the static sweep route",
		make: func(tiny bool) workload {
			if tiny {
				return &landscape{n: 6, grid: 8, tile: 4}
			}
			return &landscape{n: 12, grid: 64, tile: 16}
		},
	},
	{
		name: "tenants",
		why: "two clients repeat short sessions on eight registered problems drawn with a skewed choice " +
			"under a registry budget of a third of the diagonals: the only workload where the registry " +
			"precomputes and evicts, the elastic pool builds and retires, clients compete for cores, and " +
			"distsim, cluster, lightcone and the output path run",
		make: func(tiny bool) workload { return &tenants{tiny: tiny} },
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// adamTolGrad keeps Adam from ever stopping on convergence, so the run
// length depends only on the window.
const adamTolGrad = math.SmallestNonzeroFloat64

// adamDeepStep is adam_deep's learning rate. Adam's default of 0.05
// overshoots at p = 8: over 100 iterations from the TQA start, the last
// iterate ended above the start on 7 of 10 seeds at n = 14 and 2 of 10
// at n = 16, while at 0.01 it ended 4–6 below the start on every seed.
const adamDeepStep = 0.01

// adamDeep optimizes a deep LABS circuit with Adam over exact adjoint
// gradients, one request in flight.
type adamDeep struct {
	n, p int
	// The last pass's trajectory, for the checks: its start energy and
	// its last iterate.
	xLast, gLast  []float64
	eStart, eLast float64
}

func (w *adamDeep) shapes() []int { return []int{w.n} }

func (w *adamDeep) pass(e *env) (*passResult, error) {
	rng := rand.New(rand.NewSource(e.seed))
	// The seed moves the TQA time step within ±0.05 of 0.75, so each
	// seed starts Adam from its own TQA schedule.
	x0 := joinAngles(qokit.TQAInit(w.p, 0.75+0.05*(2*rng.Float64()-1)))
	spec := qokit.ProblemSpec{N: w.n, Terms: qokit.LABSTerms(w.n)}
	res := &passResult{}
	g := make([]float64, len(x0))
	hd, err := timeSetup(e, res, func(owner *Active) (*held, error) {
		reg := qokit.NewProblemRegistry(qokit.RegistryOptions{})
		key, err := reg.Register(spec)
		if err != nil {
			return nil, err
		}
		return setupOn(e, reg, key, qokit.RegistryServiceOptions{}, owner, func(ctx context.Context, svc *qokit.Service) error {
			_, err := svc.EnergyGrad(ctx, x0, g)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	res.release = hd.release
	if e.setupOnly {
		return res, nil
	}

	ctx, cur := withCurrent(context.Background(), e.tr)
	stop, cancel := context.WithCancel(context.Background())
	defer cancel()
	var simErr error
	obj := hd.svc.GradObjective(ctx, &simErr)
	w.xLast, w.gLast = make([]float64, len(x0)), make([]float64, len(x0))
	res.lat = make([]time.Duration, 0, 2*e.minSamples)
	var iter *Active
	win := startWindow(e, hd.reg)
	f := func(x, g []float64) float64 {
		iter.End()
		iter = e.tr.Begin("optimize.iter", nil)
		rq := e.tr.Begin("serve.request", iter)
		cur.set(rq)
		t0 := time.Now()
		v := obj(x, g)
		res.lat = append(res.lat, time.Since(t0))
		rq.End()
		res.attempted++
		if simErr != nil {
			res.failed++
			cancel()
			return v
		}
		if res.evals == 0 {
			w.eStart = v
		}
		res.evals++
		copy(w.xLast, x)
		copy(w.gLast, g)
		w.eLast = v
		if win.done(len(res.lat)) {
			cancel()
		}
		return v
	}
	qokit.Adam(f, x0, qokit.AdamOptions{MaxIter: math.MaxInt32, Step: adamDeepStep, TolGrad: adamTolGrad, Ctx: stop})
	iter.End()
	res.peakWorkers = hd.svc.PeakWorkers()
	win.close(res)
	res.probe = probeInput{diag: hd.h.Diag(), n: w.n, p: w.p}
	return res, nil
}

// check re-evaluates the last iterate on the serial backend and
// requires its energy to lie below the TQA start's. Adam's final energy
// is never compared across configurations:
// reduction order can flip the sign of near-zero gradient components,
// which Adam's normalization then amplifies.
func (w *adamDeep) check(e *env, res *passResult) []checkResult {
	const tol = 1e-9
	out := []checkResult{{
		name:   "adam_deep.descends",
		ok:     w.eLast < w.eStart,
		detail: fmt.Sprintf("last iterate's energy %.9g vs TQA start %.9g", w.eLast, w.eStart),
	}}
	sim, err := qokit.NewSimulatorFromDiagonal(w.n, res.probe.diag, qokit.Options{Backend: qokit.BackendSerial})
	if err != nil {
		return append(out, checkErr("adam_deep.serial", err))
	}
	gamma, beta := w.xLast[:w.p], w.xLast[w.p:]
	energy, gg, gb, err := sim.SimulateQAOAGrad(gamma, beta)
	if err != nil {
		return append(out, checkErr("adam_deep.serial", err))
	}
	return append(out,
		checkTol("adam_deep.serial_energy", relErr(w.eLast, energy), tol),
		checkTol("adam_deep.serial_grad", vecErr(w.gLast, joinAngles(gg, gb)), tol))
}

// landscapeChecks is the number of grid points compared with the
// gate-by-gate reference.
const landscapeChecks = 8

// landscape scans p = 1 energy landscapes tile by tile.
type landscape struct {
	n, grid, tile int
	terms         qokit.Terms
	picks         []gridPoint // seeded sample of evaluated points
}

type gridPoint struct {
	gamma, beta, energy float64
}

func (w *landscape) shapes() []int { return []int{w.n} }

func (w *landscape) pass(e *env) (*passResult, error) {
	rng := rand.New(rand.NewSource(e.seed))
	pick := rand.New(rand.NewSource(e.seed ^ 0x5eed))
	w.terms = qokit.LABSTerms(w.n)
	spec := qokit.ProblemSpec{N: w.n, Terms: w.terms}
	pts := w.tile * w.tile
	perRow := w.grid / w.tile
	flat := make([]float64, 2*pts)
	xs := make([][]float64, pts)
	for i := range xs {
		xs[i] = flat[2*i : 2*i+2 : 2*i+2]
	}
	out := make([]float64, pts)
	// Each grid covers γ ∈ [γ0, γ0+0.4) × β ∈ [β0, β0+0.8) and draws
	// its offsets (γ0, β0) from the seed.
	var g0, b0 float64
	k := 0
	nextTile := func() {
		t := k % (perRow * perRow)
		if t == 0 {
			g0, b0 = 0.1*rng.Float64(), 0.2*rng.Float64()
		}
		dg, db := 0.4/float64(w.grid), 0.8/float64(w.grid)
		ti, tj := t/perRow, t%perRow
		for a := 0; a < w.tile; a++ {
			for b := 0; b < w.tile; b++ {
				x := xs[a*w.tile+b]
				x[0] = g0 + float64(ti*w.tile+a)*dg
				x[1] = b0 + float64(tj*w.tile+b)*db
			}
		}
		k++
	}
	res := &passResult{}
	hd, err := timeSetup(e, res, func(owner *Active) (*held, error) {
		reg := qokit.NewProblemRegistry(qokit.RegistryOptions{})
		key, err := reg.Register(spec)
		if err != nil {
			return nil, err
		}
		return setupOn(e, reg, key, qokit.RegistryServiceOptions{}, owner, func(ctx context.Context, svc *qokit.Service) error {
			nextTile()
			_, err := svc.EnergyBatch(ctx, xs, out)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	res.release = hd.release
	if e.setupOnly {
		return res, nil
	}

	ctx, cur := withCurrent(context.Background(), e.tr)
	w.picks = w.picks[:0]
	res.lat = make([]time.Duration, 0, 2*e.minSamples)
	win := startWindow(e, hd.reg)
	for !win.done(len(res.lat)) {
		nextTile()
		rq := e.tr.Begin("serve.request", nil)
		cur.set(rq)
		t0 := time.Now()
		es, err := hd.svc.EnergyBatch(ctx, xs, out)
		res.lat = append(res.lat, time.Since(t0))
		rq.End()
		res.attempted++
		if err != nil {
			res.failed++
			continue
		}
		res.evals += int64(len(es))
		// Reservoir-sample one point per tile for the check.
		j := pick.Intn(pts)
		p := gridPoint{gamma: xs[j][0], beta: xs[j][1], energy: es[j]}
		if len(w.picks) < landscapeChecks {
			w.picks = append(w.picks, p)
		} else if r := pick.Intn(len(res.lat)); r < landscapeChecks {
			w.picks[r] = p
		}
	}
	res.peakWorkers = hd.svc.PeakWorkers()
	win.close(res)
	res.probe = probeInput{diag: hd.h.Diag(), n: w.n, p: 1}
	return res, nil
}

// check compares the sampled points with gate-by-gate simulation of the
// compiled circuit, whose energy is taken against an independently
// computed diagonal.
func (w *landscape) check(e *env, res *passResult) []checkResult {
	const name, tol = "landscape.gate_reference", 1e-9
	diag, err := qokit.PrecomputeDiagonal(w.n, w.terms)
	if err != nil {
		return []checkResult{checkErr(name, err)}
	}
	eng := qokit.NewGateEngine()
	worst := 0.0
	for _, pt := range w.picks {
		c, err := qokit.BuildQAOACircuit(w.n, w.terms, []float64{pt.gamma}, []float64{pt.beta})
		if err != nil {
			return []checkResult{checkErr(name, err)}
		}
		v, err := eng.Simulate(c)
		if err != nil {
			return []checkResult{checkErr(name, err)}
		}
		var ref float64
		for x, a := range v {
			ref += (real(a)*real(a) + imag(a)*imag(a)) * diag[x]
		}
		worst = math.Max(worst, relErr(pt.energy, ref))
	}
	if len(w.picks) == 0 {
		return []checkResult{{name: name, detail: "no evaluated points to compare"}}
	}
	r := checkTol(name, worst, tol)
	r.detail = fmt.Sprintf("%d points, worst %s", len(w.picks), r.detail)
	return []checkResult{r}
}
