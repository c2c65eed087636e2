package distsim

import (
	"context"
	"fmt"
	"testing"

	"qokit/internal/evaluator"
	"qokit/internal/problems"
)

// BenchmarkShardEngine times one warm engine's Energy, EnergyGrad and
// EvalOutputs (1024 shots, CVaR 0.1, variance) on LABS n = 16, p = 3,
// at K ∈ {1, 2, 4} ranks: the evaluations a sharded registry service
// runs.
func BenchmarkShardEngine(b *testing.B) {
	const n = 16
	terms := problems.LABSTerms(n)
	x := []float64{0.11, 0.23, 0.35, 0.61, 0.42, 0.18}
	spec := evaluator.OutputSpec{Shots: 1024, Seed: 7, CVaRAlphas: []float64{0.1}, Variance: true}
	ctx := context.Background()
	for _, ranks := range []int{1, 2, 4} {
		eng, err := NewGradEngine(n, terms, Options{Ranks: ranks})
		if err != nil {
			b.Fatal(err)
		}
		grad := make([]float64, len(x))
		calls := []struct {
			name string
			call func() error
		}{
			{"Energy", func() error { _, err := eng.Energy(ctx, x); return err }},
			{"EnergyGrad", func() error { _, err := eng.EnergyGrad(ctx, x, grad); return err }},
			{"EvalOutputs", func() error { _, err := eng.EvalOutputs(ctx, x, spec); return err }},
		}
		for _, c := range calls {
			b.Run(fmt.Sprintf("%s/K=%d", c.name, ranks), func(b *testing.B) {
				if err := c.call(); err != nil { // warm the lease
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.call(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
