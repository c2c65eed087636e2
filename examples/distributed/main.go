// Distributed simulation (the paper's §III-C / Listing 3): shard the
// state vector over K simulated ranks, run LABS QAOA with Algorithm 4
// (two all-to-all transposes per mixer), verify the result against the
// single-node simulator, and report the communication profile of both
// all-to-all backends — the comparison behind the paper's Fig. 5.
// Then go one rung further than the paper's forward-only pipeline:
// evaluate the exact adjoint gradient on the sharded state and drive a
// full Adam optimization through the distributed objective, verifying
// both against the single-node gradient engine.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"
	"sync"

	"qokit"
)

var (
	nQubits   = 14
	depth     = 3
	rankSet   = []int{1, 2, 4, 8}
	optRanks  = 4
	adamIters = 30
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	n, p := nQubits, depth
	terms := qokit.LABSTerms(n)
	gamma, beta := qokit.TQAInit(p, 0.7)

	// Single-node reference.
	sim, err := qokit.NewSimulator(n, terms, qokit.Options{})
	if err != nil {
		return err
	}
	ref, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		return err
	}
	refE := ref.Expectation()
	fmt.Fprintf(w, "LABS n=%d p=%d — single-node expectation %.8f\n\n", n, p, refE)

	model := qokit.DefaultNetworkModel()
	fmt.Fprintf(w, "%3s  %10s  %14s  %12s  %10s  %12s\n",
		"K", "algo", "expectation", "bytes/rank", "msgs/rank", "modeled-net")
	for _, algo := range []qokit.AlltoallAlgo{qokit.Pairwise, qokit.Transpose} {
		for _, k := range rankSet {
			res, err := qokit.SimulateQAOADistributed(n, terms, gamma, beta, qokit.DistOptions{
				Ranks: k,
				Algo:  algo,
			})
			if err != nil {
				return err
			}
			if diff := res.Expectation - refE; diff > 1e-9 || diff < -1e-9 {
				return fmt.Errorf("K=%d %v: expectation deviates by %g", k, algo, diff)
			}
			perRank := qokit.CommCounters{
				BytesSent: res.Comm.BytesSent / int64(k),
				Messages:  res.Comm.Messages / int64(k),
				Syncs:     res.Comm.Syncs / int64(k),
			}
			fmt.Fprintf(w, "%3d  %10v  %14.8f  %12d  %10d  %12v\n",
				k, algo, res.Expectation, perRank.BytesSent, perRank.Messages,
				perRank.ModeledTime(model).Round(100))
		}
	}
	fmt.Fprintln(w, "\nEvery configuration reproduces the single-node expectation exactly.")
	fmt.Fprintln(w, "Precompute and phase are communication-free; each mixer costs two")
	fmt.Fprintln(w, "all-to-alls. Pairwise pays ~2(K−1) synchronization rounds per exchange")
	fmt.Fprintln(w, "where the direct transpose pays 2 — the gap the paper measures in Fig. 5.")

	// Distributed adjoint gradient: exact ∂E/∂γ, ∂E/∂β on the sharded
	// state, cross-checked against the single-node adjoint engine.
	singleE, singleGG, singleGB, err := sim.SimulateQAOAGrad(gamma, beta)
	if err != nil {
		return err
	}
	ctx := context.Background()
	dopts := qokit.DistOptions{Ranks: optRanks, Algo: qokit.Transpose}
	eng, err := qokit.NewDistributedGradEngine(n, terms, dopts)
	if err != nil {
		return err
	}
	distGG, distGB := make([]float64, p), make([]float64, p)
	distE, err := eng.EnergyGradAngles(ctx, gamma, beta, distGG, distGB)
	if err != nil {
		return err
	}
	distBytes := eng.Counters().BytesSent // this one evaluation's traffic
	var maxDiff float64
	for l := 0; l < p; l++ {
		maxDiff = math.Max(maxDiff, math.Abs(distGG[l]-singleGG[l]))
		maxDiff = math.Max(maxDiff, math.Abs(distGB[l]-singleGB[l]))
	}
	if maxDiff > 1e-9 || math.Abs(distE-singleE) > 1e-9 {
		return fmt.Errorf("distributed gradient deviates from single-node adjoint by %g", maxDiff)
	}
	fmt.Fprintf(w, "\nDistributed adjoint gradient (K=%d): max |Δ| vs single-node %.2g,\n", optRanks, maxDiff)
	fmt.Fprintf(w, "traffic 3× one forward run's mixer collectives (%d bytes/rank).\n",
		distBytes/int64(optRanks))

	// Gradient-descent optimization on the sharded state: Adam over
	// the same engine's FlatObjective, warm-started from TQA.
	var simErr error
	resOpt := qokit.Adam(eng.FlatObjective(ctx, &simErr),
		append(append([]float64(nil), gamma...), beta...),
		qokit.AdamOptions{MaxIter: adamIters})
	if simErr != nil {
		return simErr
	}
	fmt.Fprintf(w, "\nDistributed Adam (K=%d, %d iterations, one exact sharded gradient each):\n",
		optRanks, resOpt.Iters)
	fmt.Fprintf(w, "  TQA start  E = %.6f\n", refE)
	fmt.Fprintf(w, "  optimized  E = %.6f  (%d gradient evaluations)\n", resOpt.F, resOpt.Evals)
	if resOpt.F >= refE {
		return fmt.Errorf("distributed optimization failed to improve on the TQA start: %v ≥ %v", resOpt.F, refE)
	}
	fmt.Fprintln(w, "\nThe optimizer never materializes the full state: every evaluation is")
	fmt.Fprintln(w, "one forward + one adjoint reverse pass over the K shards, so parameter")
	fmt.Fprintln(w, "optimization at cluster-only sizes costs ≈4 sharded simulations per step.")

	// §V-B memory representations on the cluster: the same sharded
	// gradient over float64 shards and over float32 shards with float32
	// wire formats, halving both state memory and fabric bytes per rank.
	// (A rank whose diagonal slice is an exact grid of few enough levels
	// keeps it as uint16 codes on its own; results are unchanged.)
	fmt.Fprintf(w, "\n§V-B shard representations (K=%d):\n", optRanks)
	fmt.Fprintf(w, "  %-22s %14s  %12s  %12s\n", "representation", "energy", "bytes/rank", "max |Δgrad|")
	f64Bytes := distBytes / int64(optRanks)
	for _, cfg := range []struct {
		name string
		opts qokit.DistOptions
	}{
		{"float64 (baseline)", dopts},
		{"float32 state + wire", qokit.DistOptions{Ranks: optRanks, Algo: qokit.Transpose, Precision: qokit.DistFloat32}},
	} {
		peng, err := qokit.NewDistributedGradEngine(n, terms, cfg.opts)
		if err != nil {
			return err
		}
		pGG, pGB := make([]float64, p), make([]float64, p)
		pE, err := peng.EnergyGradAngles(ctx, gamma, beta, pGG, pGB)
		if err != nil {
			return err
		}
		pBytes := peng.Counters().BytesSent
		var dGrad float64
		for l := 0; l < p; l++ {
			dGrad = math.Max(dGrad, math.Abs(pGG[l]-singleGG[l]))
			dGrad = math.Max(dGrad, math.Abs(pGB[l]-singleGB[l]))
		}
		tol := 1e-9
		if cfg.opts.Precision == qokit.DistFloat32 {
			tol = 2e-3 // the single-node SoA32 band
		}
		if dGrad > tol {
			return fmt.Errorf("%s: gradient deviates by %g (tolerance %g)", cfg.name, dGrad, tol)
		}
		fmt.Fprintf(w, "  %-22s %14.8f  %12d  %12.2g\n",
			cfg.name, pE, pBytes/int64(optRanks), dGrad)
		if cfg.opts.Precision == qokit.DistFloat32 && 2*pBytes != distBytes {
			return fmt.Errorf("float32 shards moved %d bytes/rank, want exactly half the float64 path's %d",
				pBytes/int64(optRanks), f64Bytes)
		}
	}
	fmt.Fprintln(w, "float32 shards halve bytes/rank and inherit the ~2e-3 gradient band.")

	// Concurrent distributed serving through the problem registry: the
	// problem is registered once, and the elastic service builds
	// rank-group leases on demand — two Adam clients flood the queue, the
	// pool grows from its one-lease floor to a second lease whose
	// diagonal shards come from the registry cache (no second
	// precompute), and the pool decays back after the clients finish.
	reg := qokit.NewProblemRegistry(qokit.RegistryOptions{})
	key, err := reg.Register(qokit.ProblemSpec{N: n, Terms: terms})
	if err != nil {
		return err
	}
	svc, err := qokit.NewRegistryService(reg, key, qokit.RegistryServiceOptions{
		Distributed: &dopts,
		Elastic:     qokit.ElasticOptions{MinWorkers: 1, MaxWorkers: 2},
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	x0 := append(append([]float64(nil), gamma...), beta...)
	results := make([]qokit.AdamResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := append([]float64(nil), x0...)
			start[0] += 0.05 * float64(i) // two distinct warm starts
			results[i] = qokit.Adam(svc.GradObjective(ctx, &errs[i]),
				start, qokit.AdamOptions{MaxIter: adamIters / 2})
		}(i)
	}
	wg.Wait()
	fmt.Fprintf(w, "\nConcurrent sharded serving (K=%d, 2 Adam clients on one elastic service):\n", optRanks)
	for i, r := range results {
		if errs[i] != nil {
			return errs[i]
		}
		fmt.Fprintf(w, "  client %d: E = %.6f after %d sharded gradients\n", i, r.F, r.Evals)
	}
	st := reg.Stats()
	fmt.Fprintf(w, "Both clients' evaluations interleaved on leased rank groups through one\n")
	fmt.Fprintf(w, "FIFO queue; the pool served them with %d live lease(s), and the registry\n", svc.LiveWorkers())
	fmt.Fprintf(w, "precomputed the diagonal once for every lease built (%d precompute, %d hits).\n",
		st.Precomputes, st.Hits)

	// Gather-free outputs: CVaR, sampling, and overlap served directly
	// on the shards, never holding a node-scale buffer. The two-stage
	// alias draw picks a rank from the allreduced shard masses, then an
	// index within the winning shard; CVaR comes from a k-way threshold
	// reduction over each rank's ascending-cost order.
	outs, err := eng.EvalOutputs(ctx, resOpt.X,
		qokit.OutputSpec{CVaRAlphas: []float64{0.5, 0.1}, Shots: 2000, Seed: 7, Variance: true})
	if err != nil {
		return err
	}
	// The reference is brute force over the single-node state: sorted
	// (cost, probability) pairs for CVaR, the ground states' mass for the
	// overlap, and two-pass moments for Var(C).
	refBest, err := sim.SimulateQAOA(resOpt.X[:p], resOpt.X[p:])
	if err != nil {
		return err
	}
	refProbs := refBest.Probabilities(nil, true)
	refDiag := sim.CostDiagonal()
	if d := math.Abs(outs.CVaR[1] - bruteCVaR(refProbs, refDiag, 0.1)); d > 1e-9 {
		return fmt.Errorf("gather-free CVaR(0.1) deviates from single-node by %g", d)
	}
	var refOverlap float64
	for _, x := range sim.GroundStates() {
		refOverlap += refProbs[x]
	}
	if d := math.Abs(outs.Overlap - refOverlap); d > 1e-9 {
		return fmt.Errorf("gather-free overlap deviates from single-node by %g", d)
	}
	var mean, refVar float64
	for i, q := range refProbs {
		mean += q * refDiag[i]
	}
	for i, q := range refProbs {
		refVar += q * (refDiag[i] - mean) * (refDiag[i] - mean)
	}
	if d := math.Abs(outs.Variance - refVar); d > 1e-9*math.Max(1, refVar) {
		return fmt.Errorf("gather-free variance deviates from single-node by %g", d)
	}
	below := 0
	for _, s := range outs.Samples {
		if float64(qokit.LABSEnergy(s, n)) <= outs.CVaR[1] {
			below++
		}
	}
	fmt.Fprintf(w, "\nGather-free outputs at the optimum (K=%d):\n", optRanks)
	fmt.Fprintf(w, "  CVaR(0.5) = %.6f   CVaR(0.1) = %.6f  (single-node match ≤ 1e-9)\n", outs.CVaR[0], outs.CVaR[1])
	fmt.Fprintf(w, "  ground-state overlap %.4g, most probable state %0*b (p=%.4g)\n",
		outs.Overlap, n, outs.MaxProbIndex, outs.MaxProb)
	fmt.Fprintf(w, "  Var(C) = %.6f via second-moment allreduce (single-node match ≤ 1e-9)\n",
		outs.Variance)
	fmt.Fprintf(w, "  %d two-stage shots: %d at energy ≤ CVaR(0.1)\n", len(outs.Samples), below)
	fmt.Fprintln(w, "No rank ever materialized the 2^n state: sampling, CVaR, and overlap ran")
	fmt.Fprintln(w, "on shard-local alias tables and cost orders plus scalar all-reduces, so")
	fmt.Fprintln(w, "the memory-reduced representations serve as full solver backends.")
	return nil
}

// bruteCVaR is CVaR(α) of the distribution probs over the costs diag:
// the mass-weighted mean cost of the lowest-cost α-fraction, from the
// (cost, probability) pairs sorted by cost.
func bruteCVaR(probs, diag []float64, alpha float64) float64 {
	order := make([]int, len(probs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return diag[order[a]] < diag[order[b]] })
	remaining, acc := alpha, 0.0
	for _, x := range order {
		take := math.Min(probs[x], remaining)
		acc += take * diag[x]
		if remaining -= take; remaining <= 0 {
			break
		}
	}
	return acc / alpha
}
