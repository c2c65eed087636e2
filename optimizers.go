package qokit

import (
	"context"
	"fmt"

	"qokit/internal/optimize"
	"qokit/internal/params"
)

// NMOptions configures the Nelder–Mead optimizer.
type NMOptions = optimize.NMOptions

// NMResult reports a Nelder–Mead optimum.
type NMResult = optimize.NMResult

// NelderMead minimizes f from x0 with the downhill-simplex method.
func NelderMead(f func([]float64) float64, x0 []float64, opt NMOptions) NMResult {
	return optimize.NelderMead(f, x0, opt)
}

// TQAInit returns the Trotterized-quantum-annealing linear-ramp
// initialization for p QAOA layers — the standard high-depth starting
// parameters (the paper's Ref. [44]).
func TQAInit(p int, dt float64) (gamma, beta []float64) { return optimize.TQAInit(p, dt) }

// OptimizeParametersInterp tunes parameters depth by depth: optimize
// p = 1, INTERP-extend to p = 2, re-optimize, and so on up to pmax —
// the standard recipe for the high-depth regime this simulator
// targets, far more robust than optimizing 2·pmax parameters cold.
// evalsPerDepth bounds the optimizer budget at each level. Every
// objective evaluation runs through a one-worker Service over one
// Workspace — the same queue that serves batches and distributed
// pools — touching a single state buffer.
func OptimizeParametersInterp(sim *Simulator, pmax, evalsPerDepth int) (gamma, beta []float64, energy float64, totalEvals int, err error) {
	if pmax < 1 {
		return nil, nil, 0, 0, fmt.Errorf("qokit: depth pmax=%d < 1", pmax)
	}
	svc, err := NewService([]Evaluator{sim.NewWorkspace()})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	defer svc.Close()
	var simErr error
	objective := svc.Objective(context.Background(), &simErr)
	gamma, beta = TQAInit(1, 0.75)
	for p := 1; p <= pmax; p++ {
		if p > 1 {
			gamma, beta = params.InterpAngles(gamma, beta)
		}
		x0 := optimize.JoinAngles(gamma, beta)
		res := optimize.NelderMead(objective, x0, optimize.NMOptions{MaxEvals: evalsPerDepth})
		if simErr != nil {
			return nil, nil, 0, 0, simErr
		}
		gamma, beta = optimize.SplitAngles(res.X)
		energy = res.F
		totalEvals += res.Evals
	}
	return gamma, beta, energy, totalEvals, nil
}

// OptimizeParameters tunes the 2p QAOA parameters of sim with
// Nelder–Mead from a TQA warm start, minimizing the expectation. It
// returns the best parameters, the best objective, and the number of
// objective evaluations — the workload whose end-to-end time the
// paper's "11× faster optimization" claim is about. Evaluations run
// through a one-worker Service over one Workspace: one state buffer
// serves the entire optimization.
func OptimizeParameters(sim *Simulator, p int, opt NMOptions) (gamma, beta []float64, energy float64, evals int, err error) {
	if p < 1 {
		return nil, nil, 0, 0, fmt.Errorf("qokit: depth p=%d < 1", p)
	}
	g0, b0 := TQAInit(p, 0.75)
	x0 := optimize.JoinAngles(g0, b0)
	svc, err := NewService([]Evaluator{sim.NewWorkspace()})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	defer svc.Close()
	var simErr error
	res := optimize.NelderMead(svc.Objective(context.Background(), &simErr), x0, opt)
	if simErr != nil {
		return nil, nil, 0, 0, simErr
	}
	gamma, beta = optimize.SplitAngles(res.X)
	return gamma, beta, res.F, res.Evals, nil
}
