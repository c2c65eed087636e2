package qokit

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"qokit/internal/core"
	"qokit/internal/distsim"
	"qokit/internal/evaluator"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
)

// The digest table: one SHA-256 line per engine configuration, over
// the bits of everything the configuration returns. A change that
// claims to keep results bit for bit runs TestDigests against the
// committed file; a change that moves bits on purpose regenerates it
// with
//
//	go test -run '^TestDigests$' -update-digests .
//
// and names the lines that moved and why.

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/digests.txt from this build")

const digestFile = "testdata/digests.txt"

// TestDigests diffs every configuration's digest against the committed
// file. Go may fuse multiply-adds on targets other than amd64 (and on
// amd64 above GOAMD64=v1 it may pick other instructions), which moves
// the last bits, so the test runs on default amd64 builds only.
func TestDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "GOAMD64" && s.Value != "v1" {
				t.Skipf("digests are pinned at GOAMD64=v1, not %s", s.Value)
			}
		}
	}
	got := digestLines(t)
	if *updateDigests {
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update-digests)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digest lines, %s has %d", len(got), digestFile, len(want))
	}
	moved := 0
	for i := range got {
		if got[i] != want[i] {
			moved++
			t.Errorf("digest moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
	if moved > 0 {
		t.Errorf("%d of %d digest lines moved", moved, len(got))
	}
}

// digestProblem is one cost of the table.
type digestProblem struct {
	name  string
	terms poly.Terms
}

func digestProblems(t *testing.T, n int) []digestProblem {
	t.Helper()
	g, err := graphs.RandomRegular(n, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	labs := problems.LABSTerms(n)
	return []digestProblem{
		{"labs", labs},
		{"labs+z0", append(append(poly.Terms(nil), labs...), poly.NewTerm(1, 0))},
		{"maxcut", problems.MaxCutTerms(g)},
		{"sk", problems.SKTerms(n, 6)},
		{"portfolio", problems.SyntheticPortfolio(n, n/2, 0.5, 3).PortfolioTerms()},
	}
}

// digestEngine is one engine of the table, built for a problem.
type digestEngine struct {
	name  string
	build func(n int, terms poly.Terms, mixer core.Mixer) (evaluator.OutputEvaluator, *core.Simulator, error)
}

func digestEngines() []digestEngine {
	var out []digestEngine
	for _, single := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("core/soa/w%d", workers)
			if single {
				name = fmt.Sprintf("core/soa32/w%d", workers)
			}
			single, workers := single, workers
			out = append(out, digestEngine{name, func(n int, terms poly.Terms, mixer core.Mixer) (evaluator.OutputEvaluator, *core.Simulator, error) {
				sim, err := core.New(n, terms, core.Options{Backend: core.BackendSoA, Workers: workers, Mixer: mixer, SinglePrecision: single})
				if err != nil {
					return nil, nil, err
				}
				return sim.NewWorkspace(), sim, nil
			}})
		}
	}
	for _, prec := range []distsim.Precision{distsim.PrecisionFloat64, distsim.PrecisionFloat32} {
		for _, ranks := range []int{1, 2, 4} {
			prec, ranks := prec, ranks
			out = append(out, digestEngine{fmt.Sprintf("distsim/%v/K%d", prec, ranks), func(n int, terms poly.Terms, mixer core.Mixer) (evaluator.OutputEvaluator, *core.Simulator, error) {
				eng, err := distsim.NewGradEngine(n, terms, distsim.Options{Ranks: ranks, Mixer: mixer, Precision: prec})
				return eng, nil, err
			}})
		}
	}
	return out
}

// digestLines evaluates every configuration of the table, in a fixed
// order, and returns its lines.
func digestLines(t *testing.T) []string {
	t.Helper()
	ctx := context.Background()
	var lines []string
	for _, n := range []int{8, 12} {
		probs := digestProblems(t, n)
		for _, eng := range digestEngines() {
			for _, prob := range probs {
				for _, mixer := range []core.Mixer{core.MixerX, core.MixerXYRing} {
					ev, sim, err := eng.build(n, prob.terms, mixer)
					if err != nil {
						t.Fatalf("%s %s n=%d %v: %v", eng.name, prob.name, n, mixer, err)
					}
					for _, p := range []int{1, 4} {
						label := fmt.Sprintf("%s %s n=%d %v p=%d", eng.name, prob.name, n, mixer, p)
						d, err := digestOf(ctx, ev, sim, n, p)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						lines = append(lines, label+" "+d)
					}
				}
			}
		}
	}
	return lines
}

// digestOf hashes the energy, the gradient, every EvalOutputs field, a
// 1,000-shot stream and, for a core simulator, its cost diagonal,
// minimum cost and ground states, at angles fixed by n and p.
func digestOf(ctx context.Context, ev evaluator.OutputEvaluator, sim *core.Simulator, n, p int) (string, error) {
	rng := rand.New(rand.NewSource(int64(100*n + p)))
	x := make([]float64, 2*p)
	for i := range x {
		x[i] = 0.1 + 0.8*rng.Float64()
	}
	h := digestHash{sha256.New()}
	e, err := ev.Energy(ctx, x)
	if err != nil {
		return "", err
	}
	h.f(e)
	grad := make([]float64, len(x))
	if e, err = ev.EnergyGrad(ctx, x, grad); err != nil {
		return "", err
	}
	h.f(e)
	h.fs(grad)
	spec := evaluator.OutputSpec{
		CVaRAlphas:  []float64{0.5, 0.1},
		Shots:       200,
		Seed:        7,
		ProbIndices: []uint64{0, 5, 1<<uint(n) - 1},
		Variance:    true,
	}
	out, err := ev.EvalOutputs(ctx, x, spec)
	if err != nil {
		return "", err
	}
	h.f(out.Energy)
	h.f(out.Overlap)
	h.f(out.MinCost)
	h.fs(out.CVaR)
	h.us(out.Samples)
	h.fs(out.Probs)
	h.u(out.MaxProbIndex)
	h.f(out.MaxProb)
	h.f(out.Variance)
	stream := evaluator.OutputSpec{Shots: 1000, Seed: 11}
	err = ev.(evaluator.SampleStreamer).StreamSamples(ctx, x, stream, func(chunk []uint64) error {
		for _, v := range chunk {
			h.u(v)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if sim != nil {
		h.fs(sim.CostDiagonal())
		h.f(sim.MinCost())
		h.us(sim.GroundStates())
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// digestHash writes values into a SHA-256 as little-endian bits.
type digestHash struct{ hash.Hash }

func (h digestHash) u(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func (h digestHash) f(v float64) { h.u(math.Float64bits(v)) }

func (h digestHash) fs(vs []float64) {
	h.u(uint64(len(vs)))
	for _, v := range vs {
		h.f(v)
	}
}

func (h digestHash) us(vs []uint64) {
	h.u(uint64(len(vs)))
	for _, v := range vs {
		h.u(v)
	}
}
