package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"qokit"
)

const (
	tenantClients = 2
	tenantSteps   = 5 // Adam gradient steps per session
	// tenantZipf skews the session draw: slot k has weight 1/(k+1)^s.
	// With the budget at a third of the diagonals this keeps the miss
	// share well above the 10 % a p90 would straddle.
	tenantZipf = 1.25
	// tenantRecords caps the sharded and light-cone sessions kept for
	// the checks.
	tenantRecords = 32
)

// tenantInstance is one registered problem of the tenants workload.
type tenantInstance struct {
	name   string
	spec   qokit.ProblemSpec
	opts   qokit.RegistryServiceOptions
	p      int
	weight float64
	key    qokit.ProblemKey
}

func (in *tenantInstance) lightCone() bool { return in.opts.LightCone != nil }
func (in *tenantInstance) sharded() bool   { return in.opts.Distributed != nil }

// sessionRecord keeps what a sharded or light-cone session returned, for
// comparison with single-node results after the window.
type sessionRecord struct {
	inst    *tenantInstance
	x, g    []float64 // the last gradient request and its answer
	e       float64
	xOut    []float64 // the outputs request and its answer
	spec    qokit.OutputSpec
	outs    *qokit.EvalOutputs
	hasOuts bool
}

// tenants is the multi-tenant workload: two closed-loop clients repeat
// sessions on problems drawn from a skewed choice over a shared
// registry whose budget holds about a third of the diagonals.
type tenants struct {
	tiny    bool
	seed    int64
	insts   []*tenantInstance
	budget  int64
	reg     *qokit.ProblemRegistry
	records []*sessionRecord
}

// instances draws the problems from the seed. The slot order, the
// sizes, the weights and therefore the cache budget are the same for
// every seed; the seed changes the instances and the session order.
func (w *tenants) instances(seed int64) ([]*tenantInstance, error) {
	rng := rand.New(rand.NewSource(seed))
	n12, n14, n15, n16, n20 := 12, 14, 15, 16, 20
	if w.tiny {
		n12, n14, n15, n16, n20 = 6, 6, 7, 8, 10
	}
	maxcut := func(n int) (qokit.Terms, error) {
		g, err := qokit.RandomRegular(n, 3, rng.Int63())
		if err != nil {
			return nil, err
		}
		return qokit.MaxCutTerms(g), nil
	}
	mc14, err := maxcut(n14)
	if err != nil {
		return nil, err
	}
	mc16, err := maxcut(n16)
	if err != nil {
		return nil, err
	}
	mc20, err := maxcut(n20)
	if err != nil {
		return nil, err
	}
	pf := qokit.SyntheticPortfolio(n12, n12/2, 0.5, rng.Int63())
	sk15, sk16 := qokit.SKTerms(n15, rng.Int63()), qokit.SKTerms(n16, rng.Int63())
	// Slot order is popularity order. The sharded instance, the slowest
	// session, takes the second slot, so the 90th percentile falls
	// inside its cluster of session times rather than between two.
	list := []*tenantInstance{
		{name: fmt.Sprintf("labs%d", n14), spec: qokit.ProblemSpec{N: n14, Terms: qokit.LABSTerms(n14)}},
		{name: fmt.Sprintf("labs%d_sharded", n16), spec: qokit.ProblemSpec{N: n16, Terms: qokit.LABSTerms(n16)},
			opts: qokit.RegistryServiceOptions{Distributed: &qokit.DistOptions{Ranks: 2, Algo: qokit.Transpose}}},
		{name: fmt.Sprintf("portfolio%d_xyring", n12), spec: qokit.ProblemSpec{
			N: n12, Terms: pf.PortfolioTerms(), Mixer: qokit.MixerXYRing, HammingWeight: pf.Budget}},
		{name: fmt.Sprintf("maxcut%d", n14), spec: qokit.ProblemSpec{N: n14, Terms: mc14}},
		{name: fmt.Sprintf("sk%d", n15), spec: qokit.ProblemSpec{N: n15, Terms: sk15}},
		{name: fmt.Sprintf("maxcut%d", n16), spec: qokit.ProblemSpec{N: n16, Terms: mc16}},
		{name: fmt.Sprintf("maxcut%d_lightcone", n20), spec: qokit.ProblemSpec{N: n20, Terms: mc20},
			opts: qokit.RegistryServiceOptions{LightCone: &qokit.LightConeOptions{Radius: 2}}},
		{name: fmt.Sprintf("sk%d", n16), spec: qokit.ProblemSpec{N: n16, Terms: sk16}},
	}
	for k, in := range list {
		in.weight = 1 / math.Pow(float64(k+1), tenantZipf)
		in.p = 3
		if in.lightCone() {
			in.p = 2 // light cones are exact only up to their radius
		}
	}
	return list, nil
}

func (w *tenants) shapes() []int {
	seen := map[int]bool{}
	var ns []int
	for _, in := range w.insts {
		if !in.sharded() && !seen[in.spec.N] {
			seen[in.spec.N] = true
			ns = append(ns, in.spec.N)
		}
	}
	sort.Ints(ns)
	return ns
}

// deck is one client's session order: tenantDeck sessions holding each
// problem in proportion to its weight (at least once), dealt in a
// seeded shuffle and reshuffled when used up. Dealing from a deck
// rather than drawing independently keeps the mix of every run close
// to the weights, so runs differ in order, not in composition.
type deck struct {
	rng   *rand.Rand
	cards []*tenantInstance
	next  int
}

const tenantDeck = 60

func (w *tenants) newDeck(rng *rand.Rand) *deck {
	var total float64
	for _, in := range w.insts {
		total += in.weight
	}
	d := &deck{rng: rng}
	for _, in := range w.insts {
		for k := max(1, int(math.Round(tenantDeck*in.weight/total))); k > 0; k-- {
			d.cards = append(d.cards, in)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) deal() *tenantInstance {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

func (w *tenants) pass(e *env) (*passResult, error) {
	insts, err := w.instances(e.seed)
	if err != nil {
		return nil, err
	}
	w.insts, w.seed, w.records = insts, e.seed, nil
	// The budget holds a third of the diagonals the sessions acquire;
	// light-cone sessions acquire none.
	var bytes int64
	for _, in := range insts {
		if !in.lightCone() {
			bytes += 8 << uint(in.spec.N)
		}
	}
	w.budget = bytes / 3

	res := &passResult{}
	first := insts[0]
	x0 := joinAngles(qokit.TQAInit(first.p, 0.75))
	g := make([]float64, len(x0))
	// The set-up registers every problem in a fresh registry and runs the
	// most popular problem's session up to its first answer.
	hd, err := timeSetup(e, res, func(owner *Active) (*held, error) {
		reg := qokit.NewProblemRegistry(qokit.RegistryOptions{MaxBytes: w.budget})
		for _, in := range insts {
			key, err := reg.Register(in.spec)
			if err != nil {
				return nil, err
			}
			in.key = key
		}
		return setupOn(e, reg, first.key, first.opts, owner, func(ctx context.Context, svc *qokit.Service) error {
			_, err := svc.EnergyGrad(ctx, x0, g)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	w.reg = hd.reg
	hd.release() // the registry stays; the set-up session ends here
	if e.setupOnly {
		res.release = func() {}
		return res, nil
	}

	var mu sync.Mutex
	perInst := map[string][]time.Duration{}
	res.lat = make([]time.Duration, 0, 4*e.minSamples)
	win := startWindow(e, w.reg)
	var wg sync.WaitGroup
	for c := 0; c < tenantClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*7919 + int64(c) + 1))
			cards := w.newDeck(rng)
			for {
				mu.Lock()
				n := len(res.lat)
				mu.Unlock()
				if win.done(n) {
					return
				}
				in := cards.deal()
				var rec *sessionRecord
				if in.sharded() || in.lightCone() {
					rec = &sessionRecord{inst: in}
				}
				dt := 0.75 + 0.05*(2*rng.Float64()-1)
				t0 := time.Now()
				out := w.session(e, in, dt, rng.Int63(), rec)
				d := time.Since(t0)
				mu.Lock()
				res.lat = append(res.lat, d)
				res.evals += out.evals
				res.attempted += out.ops
				if out.err != nil {
					res.failed++
				} else if rec != nil && len(w.records) < tenantRecords {
					w.records = append(w.records, rec)
				}
				res.peakWorkers = max(res.peakWorkers, out.peak)
				perInst[in.name] = append(perInst[in.name], d)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	win.close(res)

	for _, in := range insts {
		ms := millis(perInst[in.name])
		res.notes = append(res.notes, fmt.Sprintf("tenant %-22s sessions=%4d p10/p50/p90=%8.2f %8.2f %8.2f ms",
			in.name, len(ms), quantile(ms, 0.1), quantile(ms, 0.5), quantile(ms, 0.9)))
	}
	hits, misses := res.reg1.Hits-res.reg0.Hits, res.reg1.Misses-res.reg0.Misses
	if hits+misses > 0 {
		res.notes = append(res.notes, fmt.Sprintf("tenant registry budget=%d B misses=%d of %d acquisitions (%.1f %%) evictions=%d",
			w.budget, misses, hits+misses, 100*float64(misses)/float64(hits+misses), res.reg1.Evictions-res.reg0.Evictions))
	}
	// The kernel probe runs on the most popular problem's diagonal.
	h, err := w.reg.Acquire(context.Background(), first.key)
	if err != nil {
		return nil, err
	}
	res.probe = probeInput{diag: h.Diag(), n: first.spec.N, p: first.p}
	res.release = h.Release
	return res, nil
}

type sessionOut struct {
	evals, ops int64
	peak       int
	err        error
}

// session runs one tenant session through the façade path: Acquire
// (held for the session), the service, five Adam gradient steps from
// the TQA start with time step dt, one outputs request, Close and Release. Light-cone
// sessions skip the Acquire, because that backend never reads the
// cost diagonal, and the outputs, because it has none.
func (w *tenants) session(e *env, in *tenantInstance, dt float64, outSeed int64, rec *sessionRecord) (out sessionOut) {
	sp := e.tr.Begin("tenants.session", nil)
	defer sp.End()
	ctx, cur := withCurrent(context.Background(), e.tr)
	if !in.lightCone() {
		a := e.tr.Begin("registry.acquire", sp)
		h, err := w.reg.Acquire(ctx, in.key)
		a.End()
		out.ops++
		if err != nil {
			out.err = err
			return out
		}
		defer h.Release()
	}
	svc, err := e.stack.service(w.reg, in.key, in.opts, sp)
	if err != nil {
		out.err = err
		return out
	}
	defer svc.Close()

	var simErr error
	obj := svc.GradObjective(ctx, &simErr)
	var iter *Active
	f := func(x, g []float64) float64 {
		iter.End()
		iter = e.tr.Begin("optimize.iter", sp)
		rq := e.tr.Begin("serve.request", iter)
		cur.set(rq)
		v := obj(x, g)
		rq.End()
		if rec != nil && simErr == nil {
			rec.x, rec.g, rec.e = append(rec.x[:0], x...), append(rec.g[:0], g...), v
		}
		return v
	}
	r := qokit.Adam(f, joinAngles(qokit.TQAInit(in.p, dt)), qokit.AdamOptions{MaxIter: tenantSteps, TolGrad: adamTolGrad})
	iter.End()
	out.ops += int64(r.Evals)
	if simErr != nil {
		out.err = simErr
		return out
	}
	out.evals += int64(r.Evals)
	if !in.lightCone() {
		spec := qokit.OutputSpec{Shots: 1024, CVaRAlphas: []float64{0.1}, Variance: true, Seed: outSeed}
		rq := e.tr.Begin("serve.request", sp)
		cur.set(rq)
		outs, err := svc.EvalOutputs(ctx, r.X, spec)
		rq.End()
		out.ops++
		if err != nil {
			out.err = err
			return out
		}
		out.evals++
		if rec != nil {
			rec.xOut, rec.spec, rec.outs, rec.hasOuts = r.X, spec, outs, true
		}
	}
	out.peak = svc.PeakWorkers()
	return out
}

// check compares a seeded sample of sharded sessions with single-node
// results at rtol 1e-10 (the README's distributed contract), and the
// light-cone backend with the statevector once. A kind the window never
// drew is evaluated here so that both checks always run.
func (w *tenants) check(e *env, res *passResult) []checkResult {
	const tol = 1e-10
	ctx := context.Background()
	var out []checkResult
	byKind := map[bool][]*sessionRecord{}
	for _, r := range w.records {
		byKind[r.inst.sharded()] = append(byKind[r.inst.sharded()], r)
	}
	rng := rand.New(rand.NewSource(w.seed ^ 0xc0ffee))
	for _, sharded := range []bool{true, false} {
		name, limit := "tenants.lightcone_vs_statevector", 1
		if sharded {
			name, limit = "tenants.sharded_vs_single_node", 3
		}
		recs := byKind[sharded]
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		if len(recs) > limit {
			recs = recs[:limit]
		}
		if len(recs) == 0 {
			r, err := w.evaluate(ctx, sharded)
			if err != nil {
				out = append(out, checkErr(name, err))
				continue
			}
			recs = []*sessionRecord{r}
		}
		for _, r := range recs {
			out = append(out, w.compare(ctx, name, r, tol))
		}
	}
	return out
}

// evaluate produces a record for the sharded or light-cone instance
// outside the window.
func (w *tenants) evaluate(ctx context.Context, sharded bool) (*sessionRecord, error) {
	for _, in := range w.insts {
		if in.sharded() != sharded || (!sharded && !in.lightCone()) {
			continue
		}
		svc, err := qokit.NewRegistryService(w.reg, in.key, in.opts)
		if err != nil {
			return nil, err
		}
		defer svc.Close()
		r := &sessionRecord{inst: in, x: joinAngles(qokit.TQAInit(in.p, 0.75))}
		r.g = make([]float64, len(r.x))
		if r.e, err = svc.EnergyGrad(ctx, r.x, r.g); err != nil {
			return nil, err
		}
		if sharded {
			r.xOut, r.spec, r.hasOuts = r.x, qokit.OutputSpec{Shots: 1024, CVaRAlphas: []float64{0.1}, Variance: true, Seed: w.seed}, true
			if r.outs, err = svc.EvalOutputs(ctx, r.xOut, r.spec); err != nil {
				return nil, err
			}
		}
		return r, nil
	}
	return nil, fmt.Errorf("no such tenant instance")
}

// compare re-evaluates a record on the single-node statevector service
// for the same registered problem.
func (w *tenants) compare(ctx context.Context, name string, r *sessionRecord, tol float64) checkResult {
	name += "." + r.inst.name
	svc, err := qokit.NewRegistryService(w.reg, r.inst.key, qokit.RegistryServiceOptions{})
	if err != nil {
		return checkErr(name, err)
	}
	defer svc.Close()
	g := make([]float64, len(r.x))
	energy, err := svc.EnergyGrad(ctx, r.x, g)
	if err != nil {
		return checkErr(name, err)
	}
	worst := math.Max(relErr(r.e, energy), vecErr(r.g, g))
	if r.hasOuts {
		ref, err := svc.EvalOutputs(ctx, r.xOut, r.spec)
		if err != nil {
			return checkErr(name, err)
		}
		if len(r.outs.CVaR) != 1 || len(ref.CVaR) != 1 {
			return checkResult{name: name, detail: "missing CVaR output"}
		}
		for _, pair := range [][2]float64{
			{r.outs.Energy, ref.Energy}, {r.outs.Overlap, ref.Overlap}, {r.outs.MinCost, ref.MinCost},
			{r.outs.CVaR[0], ref.CVaR[0]}, {r.outs.Variance, ref.Variance}, {r.outs.MaxProb, ref.MaxProb},
		} {
			worst = math.Max(worst, relErr(pair[0], pair[1]))
		}
	}
	return checkTol(name, worst, tol)
}
