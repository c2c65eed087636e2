package core

import (
	"context"

	"qokit/internal/evaluator"
)

// Workspace is one worker's evaluator over a shared Simulator. It holds
// the two states an evaluation needs: ψ, which energies evolve in and
// which is the adjoint's ket, and λ, the cost-weighted bra adjoint
// gradients add (Medvidović & Carleo, arXiv:2009.01760). Each buffer is
// allocated on first use and reused by every later call, so a warm
// workspace evaluates without allocating state.
//
// Any number of workspaces may run on one Simulator at once (it is
// read-only during evolution), but a Workspace is not safe for
// concurrent use: give each worker its own, as the evaluation service
// does when a factory builds one per worker.
type Workspace struct {
	sim *Simulator
	buf GradBuffers
}

// NewWorkspace returns a workspace over s; its buffers are allocated by
// the first evaluation that needs them.
func (s *Simulator) NewWorkspace() *Workspace { return &Workspace{sim: s} }

var _ evaluator.Evaluator = (*Workspace)(nil)

// Energy evolves ψ to the flat parameter vector [γ₀…γ_{p−1},
// β₀…β_{p−1}] and returns the QAOA objective ⟨ψ|Ĉ|ψ⟩.
func (w *Workspace) Energy(ctx context.Context, x []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return 0, err
	}
	r, err := w.evolve(gamma, beta)
	if err != nil {
		return 0, err
	}
	return r.Expectation(), nil
}

// evolve evolves ψ to (γ, β) and returns it.
func (w *Workspace) evolve(gamma, beta []float64) (*Result, error) {
	if w.buf.psi == nil {
		w.buf.psi = w.sim.NewResult()
	}
	return w.buf.psi, w.sim.SimulateQAOAInto(w.buf.psi, gamma, beta)
}

// EnergyGrad evaluates the objective and its exact adjoint gradient at
// the flat parameter vector on the (ψ, λ) pair, writing ∇E into grad.
func (w *Workspace) EnergyGrad(ctx context.Context, x, grad []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return 0, err
	}
	if err := evaluator.CheckGradStorage(x, grad); err != nil {
		return 0, err
	}
	if w.buf.psi == nil {
		w.buf.psi = w.sim.NewResult()
	}
	p := len(gamma)
	return w.sim.SimulateQAOAGradInto(&w.buf, gamma, beta, grad[:p], grad[p:])
}

// Caps reports the state memory of the ψ/λ pair a workspace pins.
func (w *Workspace) Caps() evaluator.Caps { return workspaceCaps(w.sim.Caps()) }

// workspaceCaps turns a simulator's Caps into those of one workspace
// over it.
func workspaceCaps(c evaluator.Caps) evaluator.Caps {
	c.StateBytes *= 2
	return c
}

var _ evaluator.OutputEvaluator = (*Workspace)(nil)

// EvalOutputs evolves ψ to the flat parameter vector once and returns
// the outputs the spec selects (evaluator.OutputEvaluator): the energy,
// then the output stage (evaluator.Stage) over ψ as a single rank.
func (w *Workspace) EvalOutputs(ctx context.Context, x []float64, spec evaluator.OutputSpec) (*evaluator.Outputs, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return nil, err
	}
	out := &evaluator.Outputs{}
	st, err := evaluator.NewStage(w.sim.n, spec, out)
	if err != nil {
		return nil, err
	}
	r, err := w.evolve(gamma, beta)
	if err != nil {
		return nil, err
	}
	out.Energy = r.Expectation()
	if err := st.Run(ctx, evaluator.OneRank{}, r.view()); err != nil {
		return nil, err
	}
	return out, nil
}

var _ evaluator.SampleStreamer = (*Workspace)(nil)

// StreamSamples evolves ψ to the flat parameter vector once and streams
// spec.Shots sampled basis indices to fn in chunks of at most
// evaluator.SampleChunkSize (evaluator.SampleStreamer). With the same
// seed, the concatenated chunks equal the Outputs.Samples that
// EvalOutputs returns; only spec.Shots and spec.Seed are consulted.
func (w *Workspace) StreamSamples(ctx context.Context, x []float64, spec evaluator.OutputSpec, fn func(chunk []uint64) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return err
	}
	st, err := evaluator.NewStream(w.sim.n, spec, fn)
	if err != nil || spec.Shots == 0 {
		return err
	}
	r, err := w.evolve(gamma, beta)
	if err != nil {
		return err
	}
	return st.Run(ctx, evaluator.OneRank{}, r.view())
}
