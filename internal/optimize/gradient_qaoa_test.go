package optimize_test

import (
	"context"
	"testing"

	"qokit/internal/core"
	"qokit/internal/evaluator"
	"qokit/internal/optimize"
	"qokit/internal/problems"
	"qokit/internal/serve"
)

// TestAdamBeatsNelderMeadBudget is the optimizer convergence
// regression of the gradient subsystem: on a pinned LABS instance and
// the standard TQA warm start, Adam over exact adjoint gradients must
// reach the Nelder–Mead baseline energy in at most half the objective
// evaluations NM consumed. (The margin is in fact much larger — a
// quarter of the budget reaches a *lower* energy, and each adjoint
// evaluation costs only ≈ 4 simulations where one NM evaluation costs
// 1 — but the asserted bound is the contract.) Everything here is
// deterministic: fixed instance, fixed start, deterministic
// optimizers.
func TestAdamBeatsNelderMeadBudget(t *testing.T) {
	const n, p = 10, 6
	sim, err := core.New(n, problems.LABSTerms(n), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g0, b0 := optimize.TQAInit(p, 0.75)
	x0 := optimize.JoinAngles(g0, b0)

	// Nelder–Mead baseline through one reusable state buffer.
	r := sim.NewResult()
	nm := optimize.NelderMead(func(x []float64) float64 {
		gg, bb := optimize.SplitAngles(x)
		if err := sim.SimulateQAOAInto(r, gg, bb); err != nil {
			t.Fatal(err)
		}
		return r.Expectation()
	}, x0, optimize.NMOptions{})

	svc, err := serve.New([]evaluator.Evaluator{sim.NewWorkspace()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var simErr error
	adam := optimize.Adam(svc.GradObjective(context.Background(), &simErr), x0,
		optimize.AdamOptions{MaxIter: nm.Evals / 2})
	if simErr != nil {
		t.Fatal(simErr)
	}
	if adam.Evals > nm.Evals/2 {
		t.Fatalf("Adam consumed %d evaluations, budget was %d (half of NM's %d)",
			adam.Evals, nm.Evals/2, nm.Evals)
	}
	if adam.F > nm.F {
		t.Errorf("Adam energy %.6f did not reach the NM baseline %.6f within %d evaluations",
			adam.F, nm.F, adam.Evals)
	}
}
