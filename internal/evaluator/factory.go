package evaluator

import "context"

// Factory builds evaluators on demand so a scheduler can grow and
// shrink capacity instead of being handed live engine pointers at
// construction. Cost metadata is available *before* the first build —
// Caps() must not require New() to have been called — which is what
// lets an elastic pool pack heterogeneous evaluators (float64/float32,
// local/sharded/light-cone) against a memory budget before paying for
// any of them.
//
// Implementations are free to share heavy immutable state (a problem
// diagonal, per-rank shards, a cone decomposition) across builds and
// refcount it: New/Retire pairs bracket the lifetime of one evaluator,
// and a factory may only release shared state once every evaluator it
// built has been retired.
type Factory interface {
	// Caps reports the capability and cost metadata of the evaluators
	// this factory builds. StateBytes is the per-build pinned memory
	// (the cost-model term an elastic scheduler budgets against).
	// Each build serves one worker.
	Caps() Caps

	// New builds one evaluator. ctx bounds construction work only
	// (e.g. a registry acquire or a diagonal precompute), not the
	// evaluator's lifetime.
	New(ctx context.Context) (Evaluator, error)

	// Retire releases an evaluator obtained from New. After Retire the
	// evaluator must not be used; shared state is reclaimed when the
	// last outstanding build is retired.
	Retire(ev Evaluator) error
}
