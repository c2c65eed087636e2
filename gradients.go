package qokit

import (
	"context"
	"fmt"

	"qokit/internal/optimize"
	"qokit/internal/params"
)

// This file is the public façade of the adjoint-mode gradient
// subsystem. The QAOA objective's structure — diagonal phase operator,
// product-form mixer — admits reverse-mode differentiation: one
// forward pass plus one cost-weighted reverse pass yields the exact
// gradient with respect to all 2p parameters for ≈ 3 simulations'
// cost, independent of p, where central finite differences pay 4p
// simulations. Every gradient evaluation reuses one pair of state
// buffers, so optimizer loops allocate nothing per step.
//
// Entry points, lowest to highest level:
//
//   - Simulator.SimulateQAOAGrad / SimulateQAOAGradInto — one
//     evaluation (energy + ∂E/∂γ_ℓ + ∂E/∂β_ℓ).
//   - Workspace.EnergyGrad — the same on the flat [γ|β] vector, reusing
//     the workspace's ψ/λ pair across calls.
//   - Service.GradObjective feeds Adam, and Service.EnergyGradBatch
//     fans batched gradients across a pool of workspaces (NewService,
//     NewRegistryService).
//   - OptimizeParametersAdam / OptimizeParametersAdamInterp /
//     OptimizeParametersAdamFourier — full gradient-based parameter
//     optimization with TQA / INTERP / FOURIER warm starts.

// FuncGrad is a value-and-gradient objective: it returns f(x) and
// writes ∇f(x) into grad.
type FuncGrad = optimize.FuncGrad

// AdamOptions configures the Adam optimizer.
type AdamOptions = optimize.AdamOptions

// AdamResult reports an Adam optimum.
type AdamResult = optimize.AdamResult

// Adam minimizes a value-and-gradient objective with the Adam update —
// the default optimizer for adjoint-differentiated QAOA.
func Adam(f FuncGrad, x0 []float64, opt AdamOptions) AdamResult {
	return optimize.Adam(f, x0, opt)
}

// OptimizeParametersAdam tunes the 2p QAOA parameters of sim with Adam
// over exact adjoint gradients from a TQA warm start. Each iteration
// costs one gradient evaluation (≈ 3 simulations regardless of p)
// where a Nelder–Mead step costs one to a few full simulations per
// probed vertex — at high depth the gradient path reaches the same
// energies in a fraction of the evaluations (see internal/optimize's
// convergence regression test). Returns the best parameters, their
// energy, and the number of gradient evaluations consumed.
func OptimizeParametersAdam(sim *Simulator, p int, opt AdamOptions) (gamma, beta []float64, energy float64, evals int, err error) {
	if p < 1 {
		return nil, nil, 0, 0, fmt.Errorf("qokit: depth p=%d < 1", p)
	}
	g0, b0 := TQAInit(p, 0.75)
	svc, err := NewService([]Evaluator{sim.NewWorkspace()})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	defer svc.Close()
	var simErr error
	res := optimize.Adam(svc.GradObjective(context.Background(), &simErr), optimize.JoinAngles(g0, b0), opt)
	if simErr != nil {
		return nil, nil, 0, 0, simErr
	}
	gamma, beta = optimize.SplitAngles(res.X)
	return gamma, beta, res.F, res.Evals, nil
}

// OptimizeParametersAdamInterp tunes parameters depth by depth with
// Adam: optimize p = 1, INTERP-extend to p = 2, re-optimize, and so on
// up to pmax — the same warm-start schedule as
// OptimizeParametersInterp with the derivative-free inner loop
// replaced by adjoint gradients. itersPerDepth bounds Adam iterations
// (one gradient evaluation each) at each level. All evaluations run
// through one workspace, so the whole schedule touches a single pair of
// state buffers.
func OptimizeParametersAdamInterp(sim *Simulator, pmax, itersPerDepth int) (gamma, beta []float64, energy float64, totalEvals int, err error) {
	if pmax < 1 {
		return nil, nil, 0, 0, fmt.Errorf("qokit: depth pmax=%d < 1", pmax)
	}
	svc, err := NewService([]Evaluator{sim.NewWorkspace()})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	defer svc.Close()
	var simErr error
	objective := svc.GradObjective(context.Background(), &simErr)
	gamma, beta = TQAInit(1, 0.75)
	for p := 1; p <= pmax; p++ {
		if p > 1 {
			gamma, beta = params.InterpAngles(gamma, beta)
		}
		x0 := optimize.JoinAngles(gamma, beta)
		res := optimize.Adam(objective, x0, optimize.AdamOptions{MaxIter: itersPerDepth})
		if simErr != nil {
			return nil, nil, 0, 0, simErr
		}
		gamma, beta = optimize.SplitAngles(res.X)
		energy = res.F
		totalEvals += res.Evals
	}
	return gamma, beta, energy, totalEvals, nil
}

// OptimizeParametersAdamFourier tunes a depth-pmax schedule in the
// FOURIER parameterization with Adam over exact adjoint gradients:
// the optimizer works on 2q coefficients regardless of depth, the
// adjoint angle gradient is pulled back through the (linear)
// synthesis map, and each depth's optimum warm-starts the next
// (coefficients carry over unchanged; new components enter at zero,
// capped at q). itersPerDepth bounds Adam iterations per depth. This
// is the schedule of choice at very high depth, where even INTERP's
// 2p-dimensional optimization becomes the bottleneck.
func OptimizeParametersAdamFourier(sim *Simulator, pmax, q, itersPerDepth int) (gamma, beta []float64, energy float64, totalEvals int, err error) {
	if pmax < 1 {
		return nil, nil, 0, 0, fmt.Errorf("qokit: depth pmax=%d < 1", pmax)
	}
	if q < 1 || q > pmax {
		return nil, nil, 0, 0, fmt.Errorf("qokit: Fourier components q=%d outside [1, pmax=%d]", q, pmax)
	}
	svc, err := NewService([]Evaluator{sim.NewWorkspace()})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	defer svc.Close()
	gamma = make([]float64, pmax)
	beta = make([]float64, pmax)
	// xang/gang are the packed [γ…|β…] vectors the service contract
	// takes; each depth uses their 2p prefix.
	xang := make([]float64, 2*pmax)
	gang := make([]float64, 2*pmax)

	// Seed the single-component schedule from the TQA p = 1 start:
	// at p = 1 the synthesis is γ₀ = u₁ sin(π/4), β₀ = v₁ cos(π/4).
	g0, b0 := TQAInit(1, 0.75)
	const invSinQuarterPi = 1.4142135623730951 // 1/sin(π/4)
	x := []float64{g0[0] * invSinQuarterPi, b0[0] * invSinQuarterPi}

	var simErr error
	p := 1
	objective := func(xk, g []float64) float64 {
		if simErr != nil {
			return 0
		}
		qe := len(xk) / 2
		params.FourierAnglesInto(xk[:qe], xk[qe:], xang[:p], xang[p:2*p])
		e, err := svc.EnergyGrad(context.Background(), xang[:2*p], gang[:2*p])
		if err != nil {
			simErr = err
			return 0
		}
		params.FourierGrad(gang[:p], gang[p:2*p], g[:qe], g[qe:])
		return e
	}
	var res AdamResult
	for p = 1; p <= pmax; p++ {
		if qe := len(x) / 2; qe < q && qe < p {
			// Grow the basis: append one zero component to each half.
			u := append(append([]float64(nil), x[:qe]...), 0)
			v := append(append([]float64(nil), x[qe:]...), 0)
			x = append(u, v...)
		}
		res = Adam(objective, x, AdamOptions{MaxIter: itersPerDepth})
		if simErr != nil {
			return nil, nil, 0, 0, simErr
		}
		x = res.X
		totalEvals += res.Evals
	}
	p = pmax
	qe := len(x) / 2
	params.FourierAnglesInto(x[:qe], x[qe:], gamma, beta)
	return gamma, beta, res.F, totalEvals, nil
}
