// Benchmarks regenerating the paper's evaluation (§V–§VI), one family
// per figure/table. These are the testing.B counterparts of the
// cmd/qaoabench harness, sized to run in minutes on a laptop; the
// harness accepts larger -n. Shapes to look for:
//
//	Fig2:  qokit end-to-end beats the recompute and gate baselines at every n
//	Fig3:  per-layer gap grows with n (paper: ~20× vs gates by n=26);
//	       tensor-network baselines are orders of magnitude slower
//	Fig4:  precompute (pooled) is a small multiple of one layer, so it
//	       amortizes within a few layers; gate layers never amortize
//	Fig5:  all-to-all cost per rank; pairwise pays more synchronization
//	Opt:   a full optimization run is an order of magnitude faster on
//	       the precomputed-diagonal simulator (paper: 11× at n=26)
//	Quant: the uint16 phase path beats per-amplitude sincos
//	Gates: compile cost of the baseline's phase operator
package qokit

import (
	"fmt"
	"testing"

	"qokit/internal/cluster"
	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/distsim"
	"qokit/internal/gatesim"
	"qokit/internal/graphs"
	"qokit/internal/optimize"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
	"qokit/internal/tensornet"
)

// ---------------------------------------------------------------- Fig. 2

// BenchmarkFig2EndToEnd measures one full QAOA objective evaluation
// (setup + p=6 layers + expectation) on MaxCut 3-regular graphs.
func BenchmarkFig2EndToEnd(b *testing.B) {
	gamma, beta := optimize.TQAInit(6, 0.75)
	for _, n := range []int{8, 12, 16} {
		g, err := graphs.RandomRegular(n, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		terms := problems.MaxCutTerms(g)
		b.Run(fmt.Sprintf("openqaoa-analog/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, err := core.New(n, terms, core.Options{Backend: core.BackendSerial, RecomputePhase: true})
				if err != nil {
					b.Fatal(err)
				}
				r, err := sim.SimulateQAOA(gamma, beta)
				if err != nil {
					b.Fatal(err)
				}
				_ = r.Expectation()
			}
		})
		b.Run(fmt.Sprintf("qiskit-analog/n=%d", n), func(b *testing.B) {
			diag := costvec.Precompute(poly.Compile(terms), n)
			for i := 0; i < b.N; i++ {
				circ, err := gatesim.BuildQAOA(n, terms, gamma, beta)
				if err != nil {
					b.Fatal(err)
				}
				v, err := gatesim.NewEngine().Simulate(circ)
				if err != nil {
					b.Fatal(err)
				}
				_ = statevec.ExpectationDiag(v, diag)
			}
		})
		b.Run(fmt.Sprintf("qokit-cpu/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, err := core.New(n, terms, core.Options{Backend: core.BackendSerial})
				if err != nil {
					b.Fatal(err)
				}
				r, err := sim.SimulateQAOA(gamma, beta)
				if err != nil {
					b.Fatal(err)
				}
				_ = r.Expectation()
			}
		})
	}
}

// ---------------------------------------------------------------- Fig. 3

// BenchmarkFig3Layer measures the time to apply one QAOA layer on the
// LABS problem (precompute excluded, as in the paper's Fig. 3).
func BenchmarkFig3Layer(b *testing.B) {
	const gamma, beta = 0.31, 0.57
	for _, n := range []int{10, 14, 18} {
		terms := problems.LABSTerms(n)
		layer := gatesim.NewCircuit(n)
		layer.AppendPhaseOperator(terms, gamma)
		layer.AppendXMixer(beta)
		layer = layer.CancelAdjacentCX()

		b.Run(fmt.Sprintf("qiskit-analog/n=%d", n), func(b *testing.B) {
			state := statevec.NewUniform(n)
			eng := gatesim.NewEngine()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Run(layer, state); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("gates-pooled/n=%d", n), func(b *testing.B) {
			state := statevec.NewUniform(n)
			eng := gatesim.NewPooledEngine(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Run(layer, state); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, bk := range []struct {
			name    string
			backend core.Backend
		}{{"qokit", core.BackendParallel}, {"qokit-soa", core.BackendSoA}} {
			b.Run(fmt.Sprintf("%s/n=%d", bk.name, n), func(b *testing.B) {
				sim, err := core.New(n, terms, core.Options{Backend: bk.backend})
				if err != nil {
					b.Fatal(err)
				}
				r, err := sim.SimulateQAOA(nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sim.ApplyLayer(r, gamma, beta)
				}
			})
		}
	}
	// Tensor-network points: small n only (the baseline's documented
	// blow-up is the result).
	for _, n := range []int{8, 10} {
		terms := problems.LABSTerms(n)
		circ, err := gatesim.BuildQAOA(n, terms, []float64{gamma}, []float64{beta})
		if err != nil {
			b.Fatal(err)
		}
		for _, h := range []tensornet.Heuristic{tensornet.GreedySize, tensornet.GreedyFlops} {
			b.Run(fmt.Sprintf("tn-%v/n=%d", h, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := tensornet.Amplitude(circ, 0, h, 1<<24); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------- Fig. 4

// BenchmarkFig4Precompute measures the cost-diagonal precomputation —
// the quantity amortized over layers in Fig. 4 — for the serial
// ("CPU"), pooled ("GPU"-analogue), and paper-faithful per-term-kernel
// variants.
func BenchmarkFig4Precompute(b *testing.B) {
	for _, n := range []int{16, 20} {
		compiled := poly.Compile(problems.LABSTerms(n))
		b.Run(fmt.Sprintf("serial/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = costvec.Precompute(compiled, n)
			}
		})
		pool := statevec.NewPool(0)
		b.Run(fmt.Sprintf("pooled/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = costvec.PrecomputePool(pool, compiled, n)
			}
		})
		b.Run(fmt.Sprintf("per-term-kernels/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = costvec.PrecomputeTermKernels(pool, compiled, n)
			}
		})
	}
}

// BenchmarkFig4TotalAtDepth measures real end-to-end runs at a few
// depths, the additivity checks behind the synthesized Fig. 4 curves.
func BenchmarkFig4TotalAtDepth(b *testing.B) {
	n := 16
	terms := problems.LABSTerms(n)
	for _, p := range []int{1, 16, 64} {
		gamma := make([]float64, p)
		beta := make([]float64, p)
		for i := range gamma {
			gamma[i], beta[i] = 0.31, 0.57
		}
		b.Run(fmt.Sprintf("qokit-soa/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, err := core.New(n, terms, core.Options{Backend: core.BackendSoA})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.SimulateQAOA(gamma, beta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------- Fig. 5

// BenchmarkFig5Alltoall measures one distributed mixer application at
// fixed per-rank volume (weak scaling) for both all-to-all algorithms.
func BenchmarkFig5Alltoall(b *testing.B) {
	const localQubits = 12
	for _, k := range []int{2, 4, 8, 16} {
		logK := 0
		for 1<<uint(logK) < k {
			logK++
		}
		n := localQubits + logK
		for _, algo := range []cluster.AlltoallAlgo{cluster.Pairwise, cluster.Transpose} {
			b.Run(fmt.Sprintf("%v/K=%d", algo, k), func(b *testing.B) {
				slices := make([]*statevec.SoA, k)
				for r := range slices {
					slices[r] = statevec.NewSoAUniform(localQubits)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := distsim.MixerOnly(n, k, algo, slices, 0.41); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------- §V "11×"

// BenchmarkOptSpeedup measures a fixed-budget Nelder–Mead parameter
// optimization end to end on both simulators.
func BenchmarkOptSpeedup(b *testing.B) {
	n, p, budget := 12, 4, 30
	terms := problems.LABSTerms(n)
	g0, b0 := optimize.TQAInit(p, 0.75)
	x0 := optimize.JoinAngles(g0, b0)
	b.Run("qokit-soa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim, err := core.New(n, terms, core.Options{Backend: core.BackendSoA})
			if err != nil {
				b.Fatal(err)
			}
			optimize.NelderMead(func(x []float64) float64 {
				gg, bb := optimize.SplitAngles(x)
				r, err := sim.SimulateQAOA(gg, bb)
				if err != nil {
					b.Fatal(err)
				}
				return r.Expectation()
			}, x0, optimize.NMOptions{MaxEvals: budget})
		}
	})
	b.Run("gate-based", func(b *testing.B) {
		diag := costvec.Precompute(poly.Compile(terms), n)
		for i := 0; i < b.N; i++ {
			optimize.NelderMead(func(x []float64) float64 {
				gg, bb := optimize.SplitAngles(x)
				circ, err := gatesim.BuildQAOA(n, terms, gg, bb)
				if err != nil {
					b.Fatal(err)
				}
				v, err := gatesim.NewEngine().Simulate(circ)
				if err != nil {
					b.Fatal(err)
				}
				return statevec.ExpectationDiag(v, diag)
			}, x0, optimize.NMOptions{MaxEvals: budget})
		}
	})
}

// ---------------------------------------------------------------- §V-B

// BenchmarkQuantizedPhase is the ablation behind the uint16 diagonal:
// phase application via per-amplitude sincos (float64 diagonal) versus
// a per-γ table build plus a gather by the uint16 level codes.
func BenchmarkQuantizedPhase(b *testing.B) {
	n := 18
	diag := costvec.PrecomputePool(statevec.NewPool(0), poly.Compile(problems.LABSTerms(n)), n)
	q, err := costvec.Quantize(diag, 1)
	if err != nil {
		b.Fatal(err)
	}
	pool := statevec.NewPool(0)
	v := statevec.NewUniform(n)
	b.Run("sincos-f64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool.ApplyPhase(v, statevec.Phase{Diag: diag, Gamma: 0.31})
		}
	})
	b.Run("uint16-table", func(b *testing.B) {
		tab := make([]complex128, int(q.MaxCode())+1)
		for i := 0; i < b.N; i++ {
			q.PhaseTableInto(tab, 0.31)
			pool.ApplyPhase(v, statevec.Phase{Diag: diag, Gamma: 0.31, Codes: q.Codes, Tab: tab})
		}
	})
}

// ---------------------------------------------------------------- §VI

// BenchmarkGateCompile measures compiling one LABS phase operator into
// gates — overhead the gate-based baseline pays on every objective
// evaluation and the fast simulator pays never.
func BenchmarkGateCompile(b *testing.B) {
	for _, n := range []int{16, 24} {
		terms := problems.LABSTerms(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := gatesim.NewCircuit(n)
				c.AppendPhaseOperator(terms, 0.31)
				_ = c.CancelAdjacentCX()
			}
		})
	}
}

// BenchmarkMixerKernels isolates the mixer kernel families of §III-B
// on one mixer application: Algorithm 2's per-qubit sweep on each
// representation, and the split layouts' tiled F = 2 kernel.
func BenchmarkMixerKernels(b *testing.B) {
	n := 18
	pool := statevec.NewPool(0)
	b.Run("serial-complex128", func(b *testing.B) {
		v := statevec.NewUniform(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			statevec.ApplyUniformRX(v, 0.57)
		}
	})
	b.Run("pooled-complex128", func(b *testing.B) {
		v := statevec.NewUniform(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.ApplyUniformRX(v, 0.57)
		}
	})
	b.Run("soa-float64", func(b *testing.B) {
		s := statevec.NewSoAUniform(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for q := 0; q < n; q++ {
				s.ApplyRX(pool, q, 0.57)
			}
		}
	})
	b.Run("soa-tiled-f2", func(b *testing.B) {
		s := statevec.NewSoAUniform(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ApplyUniformRX(pool, 0.57)
		}
	})
	b.Run("soa32-tiled-f2", func(b *testing.B) {
		s := statevec.NewSoA32Uniform(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ApplyUniformRX(pool, 0.57)
		}
	})
	b.Run("fwht-method-ref43", func(b *testing.B) {
		// The Ref. [43] alternative: two transforms + a diagonal,
		// versus Algorithm 2's single sweep above.
		v := statevec.NewUniform(n)
		diag := make([]float64, len(v))
		for x := range diag {
			diag[x] = float64(n - 2*popcount(x))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			statevec.FWHT(v)
			statevec.PhaseDiag(v, diag, 0.57)
			statevec.FWHT(v)
		}
	})
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}
