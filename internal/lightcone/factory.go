package lightcone

import (
	"context"
	"fmt"
	"math"

	"qokit/internal/evaluator"
	"qokit/internal/graphs"
	"qokit/internal/poly"
)

// Factory hands out one shared light-cone engine. Cone extraction and
// isomorphism dedup — the expensive part — run once at factory
// construction (they are needed for Caps anyway); every New returns
// the same engine, whose evaluation path is safe for concurrent use
// with per-call pooled buffers. Each build serves one worker, as every
// build does, and one evaluation already fans across all the engine's
// workers; an elastic pool growing more workers from this factory gets
// concurrent *evaluations*, each fanning internally.
type Factory struct {
	eng *Engine
}

var _ evaluator.Factory = (*Factory)(nil)

// NewWeightedFactory builds the factory for weighted MaxCut on n
// vertices.
func NewWeightedFactory(n int, edges []graphs.WeightedEdge, opts Options) (*Factory, error) {
	eng, err := NewWeighted(n, edges, opts)
	if err != nil {
		return nil, err
	}
	return &Factory{eng: eng}, nil
}

// NewFactoryFromTerms builds the factory from a MaxCut cost
// polynomial (the registry's problem form), inverting
// problems.WeightedMaxCutTerms via MaxCutEdges.
func NewFactoryFromTerms(n int, ts poly.Terms, opts Options) (*Factory, error) {
	edges, err := MaxCutEdges(n, ts)
	if err != nil {
		return nil, err
	}
	return NewWeightedFactory(n, edges, opts)
}

// Caps reports the shared engine's metadata.
func (f *Factory) Caps() evaluator.Caps { return f.eng.Caps() }

// Engine returns the shared engine (for stats reporting).
func (f *Factory) Engine() *Engine { return f.eng }

// New returns the shared engine.
func (f *Factory) New(ctx context.Context) (evaluator.Evaluator, error) { return f.eng, nil }

// Retire is a no-op: the engine's cone simulators are bounded by cone
// size, not 2^n, and stay warm for the next build.
func (f *Factory) Retire(ev evaluator.Evaluator) error {
	if ev != evaluator.Evaluator(f.eng) {
		return fmt.Errorf("lightcone: Retire of an evaluator this factory did not build")
	}
	return nil
}

// MaxCutEdges inverts problems.WeightedMaxCutTerms: it recovers the
// weighted edge list from a MaxCut cost polynomial
// f(s) = Σ (w_e/2)·s_u s_v − W/2. It fails if the polynomial has any
// term of degree other than 2 besides the single −W/2 constant, or if
// the constant is inconsistent with the quadratic weights — i.e. the
// problem is not a MaxCut instance this backend can serve.
func MaxCutEdges(n int, ts poly.Terms) ([]graphs.WeightedEdge, error) {
	var edges []graphs.WeightedEdge
	var offset, total float64
	haveOffset := false
	for _, t := range ts.Canonical() {
		vars := maskVars(t.Mask())
		switch len(vars) {
		case 0:
			offset = t.Weight
			haveOffset = true
		case 2:
			if vars[0] >= n || vars[1] >= n {
				return nil, fmt.Errorf("lightcone: term %v references a vertex ≥ n=%d", t, n)
			}
			w := 2 * t.Weight
			edges = append(edges, graphs.WeightedEdge{U: vars[0], V: vars[1], Weight: w})
			total += w
		default:
			return nil, fmt.Errorf("lightcone: degree-%d term %v — not a MaxCut polynomial", len(vars), t)
		}
	}
	if !haveOffset {
		return nil, fmt.Errorf("lightcone: missing the −W/2 constant term of a MaxCut polynomial")
	}
	want := -total / 2
	tol := 1e-9 * math.Max(1, math.Abs(want))
	if math.Abs(offset-want) > tol {
		return nil, fmt.Errorf("lightcone: constant term %g inconsistent with −W/2 = %g — not a MaxCut polynomial", offset, want)
	}
	return edges, nil
}

// maskVars unpacks a term bitmask into sorted variable indices.
func maskVars(m uint64) []int {
	var vars []int
	for i := 0; m != 0; i, m = i+1, m>>1 {
		if m&1 == 1 {
			vars = append(vars, i)
		}
	}
	return vars
}
