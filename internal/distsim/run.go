// The rank loop: every distributed evaluation — energy, gradient,
// outputs, sampling, checkpointed and gathered runs — is one call of
// GradEngine.evolve per rank, over that rank's shard of the one
// split-plane engine (internal/shard). The loop adds what only a
// cluster of ranks needs: the all-reduces that combine the ranks'
// energy and gradient shares, the gather, and layer-boundary snapshots.
package distsim

import (
	"qokit/internal/cluster"
	"qokit/internal/evaluator"
	"qokit/internal/shard"
	"qokit/internal/statevec"
)

// serialPool is the inline kernel pool behind every per-rank kernel
// call: the rank goroutines are already the host's parallelism, and a
// kernel pool nested under them would oversubscribe the cores. A Pool
// is immutable configuration, so one instance serves all ranks.
var serialPool = statevec.NewPool(1)

// rankState is one rank's workspace in a lease: its shard and the
// gradient partials the all-reduce combines.
type rankState struct {
	shard.Shard
	flat []float64
}

// run is one evaluation, carried out by every rank of a lease through
// evolve: the forward layers (resumed and captured under plan), then
// each requested stage in order.
type run struct {
	gamma, beta []float64
	plan        ckptPlan
	// energy, when non-nil, receives ⟨Ĉ⟩ from one AllreduceSum.
	energy *float64
	// outputs, when non-nil, runs on every rank over its evolved shard.
	outputs func(c *cluster.Comm, v evaluator.View) error
	// state, when non-nil, receives the gathered state vector.
	state *statevec.Vec
	// gradGamma and gradBeta, when non-nil, receive the adjoint
	// gradient from one reverse pass and one AllreduceSumVec.
	gradGamma, gradBeta []float64
}

// evolve runs r on rank c.Rank(): the initial state (or the resumed
// one), the forward layers with any captures, then the energy, the
// outputs, the gather and the adjoint gradient, as r requests.
func (e *GradEngine) evolve(c *cluster.Comm, rs *rankState, r *run) error {
	sh := rs.Shard
	if r.plan.resume != nil {
		e.load(sh, r.plan.resume)
	} else {
		sh.Reset()
	}
	p := len(r.gamma)
	for l := r.plan.start; l < p; l++ {
		if err := sh.Layer(c, r.gamma[l], r.beta[l]); err != nil {
			return err
		}
		if snap := r.plan.snap; snap != nil && ((l+1)%r.plan.every == 0 || l+1 == p) {
			e.store(sh, snap)
			if err := writeSnapshot(c, snap, l+1, r.gamma, r.beta, r.plan.path); err != nil {
				return err
			}
		}
	}
	if r.energy != nil {
		en, err := c.AllreduceSum(sh.Expectation())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			*r.energy = en
		}
	}
	if r.outputs != nil {
		if err := r.outputs(c, sh.View()); err != nil {
			return err
		}
	}
	if r.state != nil {
		full, err := c.AllGather(sh.Vec())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Group shards gather the stored indices; the group fill
			// adds the rest of each orbit.
			group := e.eng.Config().Sym.Group
			full = append(full, make(statevec.Vec, (len(group)-1)*len(full))...)
			evaluator.FillGroup(full, group)
			*r.state = full
		}
	}
	if r.gradGamma == nil {
		return nil
	}
	if cap(rs.flat) < 2*p {
		rs.flat = make([]float64, 2*p)
	}
	flat := rs.flat[:2*p]
	if err := sh.Adjoint(c, r.gamma, r.beta, nil, flat[:p], flat[p:]); err != nil {
		return err
	}
	if err := c.AllreduceSumVec(flat); err != nil {
		return err
	}
	if c.Rank() == 0 {
		copy(r.gradGamma, flat[:p])
		copy(r.gradBeta, flat[p:])
	}
	return nil
}
