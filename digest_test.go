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
	"slices"
	"strings"
	"testing"

	"qokit/internal/core"
	"qokit/internal/distsim"
	"qokit/internal/evaluator"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
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
	lines = append(lines, moreDigestLines(t)...)
	return append(lines, forwardDigestLines(t)...)
}

// coreConfig is one core simulator configuration of the table.
type coreConfig struct {
	name  string
	opts  core.Options
	mixer core.Mixer
}

// digestCoreConfigs returns the core configurations of the table:
// configs, the SoA and SoA32 engines of the first 400 lines with the x
// and xy-ring mixers, and added, the configurations moreDigestLines
// adds (Serial, an explicit uniform InitialState, xy-complete).
func digestCoreConfigs() (configs, added []coreConfig) {
	for _, single := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("core/soa/w%d", workers)
			if single {
				name = fmt.Sprintf("core/soa32/w%d", workers)
			}
			opts := core.Options{Backend: core.BackendSoA, Workers: workers, SinglePrecision: single}
			for _, mixer := range []core.Mixer{core.MixerX, core.MixerXYRing} {
				opts.Mixer = mixer
				configs = append(configs, coreConfig{name, opts, mixer})
			}
		}
	}
	for _, mixer := range []core.Mixer{core.MixerX, core.MixerXYRing} {
		added = append(added, coreConfig{"core/serial", core.Options{Backend: core.BackendSerial, Mixer: mixer}, mixer})
	}
	for _, c := range configs {
		if c.mixer != core.MixerX {
			continue
		}
		init := c
		init.name += "/init"
		added = append(added, init)
		complete := c
		complete.opts.Mixer, complete.mixer = core.MixerXYComplete, core.MixerXYComplete
		added = append(added, complete)
	}
	return configs, added
}

// build returns the configuration's simulator for a problem.
func (c coreConfig) build(t *testing.T, n int, terms poly.Terms) *core.Simulator {
	t.Helper()
	opts := c.opts
	if strings.HasSuffix(c.name, "/init") {
		opts.InitialState = statevec.NewUniform(n)
	}
	sim, err := core.New(n, terms, opts)
	if err != nil {
		t.Fatalf("%s n=%d %v: %v", c.name, n, c.mixer, err)
	}
	return sim
}

// moreDigestLines is the second part of the table, appended after the
// first 400 lines so that those stay as they are: the Serial reference,
// an explicit uniform InitialState and the xy-complete mixer on the
// core engines; the state-level outputs of every core configuration
// (stateDigest); and distsim's checkpointed and gathered forward
// one-shots (distsimRunLines).
func moreDigestLines(t *testing.T) []string {
	t.Helper()
	ctx := context.Background()
	configs, added := digestCoreConfigs()
	var lines []string
	for _, n := range []int{8, 12} {
		for _, c := range added {
			for _, prob := range digestProblems(t, n) {
				sim := c.build(t, n, prob.terms)
				for _, p := range []int{1, 4} {
					label := fmt.Sprintf("%s %s n=%d %v p=%d", c.name, prob.name, n, c.mixer, p)
					d, err := digestOf(ctx, sim.NewWorkspace(), sim, n, p)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					lines = append(lines, label+" "+d)
				}
			}
		}
	}
	for _, n := range []int{8, 12} {
		for _, c := range append(configs, added...) {
			for _, prob := range digestProblems(t, n) {
				sim := c.build(t, n, prob.terms)
				for _, p := range []int{1, 4} {
					label := fmt.Sprintf("%s %s n=%d %v p=%d state", c.name, prob.name, n, c.mixer, p)
					d, err := stateDigest(sim, n, p)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					lines = append(lines, label+" "+d)
				}
			}
		}
	}
	return append(lines, distsimRunLines(t)...)
}

// digestAngles returns the flat angles of configuration (n, p), split.
func digestAngles(n, p int) (gamma, beta []float64) {
	rng := rand.New(rand.NewSource(int64(100*n + p)))
	x := make([]float64, 2*p)
	for i := range x {
		x[i] = 0.1 + 0.8*rng.Float64()
	}
	return x[:p], x[p:]
}

// stateDigest hashes what a core simulator returns about the state
// itself at the angles of (n, p): the state vector, the probabilities
// with and without preserving the state, the norm, the expectation and
// adjoint gradient of Z₀ (which no symmetry group of the table fixes),
// and the states after three more ApplyLayer calls.
func stateDigest(sim *core.Simulator, n, p int) (string, error) {
	h := digestHash{sha256.New()}
	if err := hashState(h, sim, n, p, true); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashState writes stateDigest's values into h, the Z₀ gradient only
// when grad is set.
func hashState(h digestHash, sim *core.Simulator, n, p int, grad bool) error {
	gamma, beta := digestAngles(n, p)
	r, err := sim.SimulateQAOA(gamma, beta)
	if err != nil {
		return err
	}
	sv := r.StateVector()
	h.f(sim.InitialState().Norm())
	for _, a := range sv {
		h.f(real(a))
		h.f(imag(a))
	}
	h.fs(r.Probabilities(nil, true))
	h.f(r.Norm())
	z0 := make([]float64, 1<<uint(n))
	for x := range z0 {
		z0[x] = float64(1 - 2*(x&1))
	}
	e, err := r.ExpectationOf(z0)
	if err != nil {
		return err
	}
	h.f(e)
	if grad {
		gg, gb := make([]float64, p), make([]float64, p)
		if e, err = sim.SimulateQAOAGradObsInto(sim.NewGradBuffers(), gamma, beta, z0, gg, gb); err != nil {
			return err
		}
		h.f(e)
		h.fs(gg)
		h.fs(gb)
	}
	for l := 0; l < 3; l++ {
		if err := sim.ApplyLayer(r, gamma[l%p]/2, beta[l%p]/3); err != nil {
			return err
		}
		h.f(r.Expectation())
		for _, a := range r.StateVector() {
			h.f(real(a))
			h.f(imag(a))
		}
	}
	h.fs(slices.Clone(r.Probabilities(nil, false)))
	return nil
}

// distsimRunLines hashes distsim's forward one-shots at p = 4: the
// float64 gather of SimulateQAOA, and SimulateQAOACheckpointed resumed
// from a snapshot taken after layer 2. A completed checkpointed run
// removes its file, so the snapshot is written from the gathered
// float64 state of the first two layers (rounded to float32 for
// float32 shards) in the layout SimulateQAOACheckpointed writes, and
// the resumed run applies layers 3 and 4.
func distsimRunLines(t *testing.T) []string {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	const p = 4
	var lines []string
	for _, n := range []int{8, 12} {
		gamma, beta := digestAngles(n, p)
		for _, ranks := range []int{1, 2, 4} {
			for _, prob := range digestProblems(t, n) {
				for _, mixer := range []core.Mixer{core.MixerX, core.MixerXYRing} {
					opts := distsim.Options{Ranks: ranks, Mixer: mixer, Gather: true}
					label := fmt.Sprintf("distsim/K%d %s n=%d %v p=%d", ranks, prob.name, n, mixer, p)
					res, err := distsim.SimulateQAOA(ctx, n, prob.terms, gamma, beta, opts)
					if err != nil {
						t.Fatalf("%s gather: %v", label, err)
					}
					lines = append(lines, label+" gather "+runDigest(res))
					half, err := distsim.SimulateQAOA(ctx, n, prob.terms, gamma[:2], beta[:2], opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for _, prec := range []distsim.Precision{distsim.PrecisionFloat64, distsim.PrecisionFloat32} {
						path := filepath.Join(dir, "snap")
						snap := &distsim.ShardSnapshot{
							N: n, Ranks: ranks, Mixer: mixer, HammingWeight: n / 2, Precision: prec,
							Layer: 2, GammaPrefix: gamma[:2], BetaPrefix: beta[:2],
						}
						size := len(half.State) / ranks
						for r := 0; r < ranks; r++ {
							part := half.State[r*size : (r+1)*size]
							if prec == distsim.PrecisionFloat64 {
								snap.Shards = append(snap.Shards, part)
								continue
							}
							re, im := make([]float32, size), make([]float32, size)
							for i, a := range part {
								re[i], im[i] = float32(real(a)), float32(imag(a))
							}
							snap.Re, snap.Im = append(snap.Re, re), append(snap.Im, im)
						}
						if err := distsim.SaveShardSnapshot(path, snap); err != nil {
							t.Fatal(err)
						}
						ro := distsim.Options{Ranks: ranks, Mixer: mixer, Precision: prec, Gather: prec == distsim.PrecisionFloat64}
						res, err := distsim.SimulateQAOACheckpointed(ctx, n, prob.terms, gamma, beta, ro, distsim.CheckpointOptions{Path: path})
						if err != nil {
							t.Fatalf("%s %v resume: %v", label, prec, err)
						}
						if _, err := os.Stat(path); !os.IsNotExist(err) {
							t.Fatalf("%s %v: the completed run left its checkpoint (%v)", label, prec, err)
						}
						lines = append(lines, fmt.Sprintf("%s resume/%v %s", label, prec, runDigest(res)))
					}
				}
			}
		}
	}
	return lines
}

// runDigest hashes a distsim forward one-shot's values and gathered
// state.
func runDigest(res *distsim.Result) string {
	h := digestHash{sha256.New()}
	hashRun(h, res)
	return hex.EncodeToString(h.Sum(nil))
}

func hashRun(h digestHash, res *distsim.Result) {
	h.f(res.Expectation)
	h.f(res.Overlap)
	h.f(res.MinCost)
	h.u(uint64(len(res.State)))
	for _, a := range res.State {
		h.f(real(a))
		h.f(imag(a))
	}
}

// digestOf hashes the energy, the gradient, every EvalOutputs field, a
// 1,000-shot stream and, for a core simulator, its cost diagonal,
// minimum cost and ground states, at angles fixed by n and p.
func digestOf(ctx context.Context, ev evaluator.OutputEvaluator, sim *core.Simulator, n, p int) (string, error) {
	h := digestHash{sha256.New()}
	if err := hashOutputs(ctx, h, ev, sim, n, p, true); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashOutputs writes digestOf's values into h, the EnergyGrad call's
// energy and gradient only when grad is set.
func hashOutputs(ctx context.Context, h digestHash, ev evaluator.OutputEvaluator, sim *core.Simulator, n, p int, grad bool) error {
	rng := rand.New(rand.NewSource(int64(100*n + p)))
	x := make([]float64, 2*p)
	for i := range x {
		x[i] = 0.1 + 0.8*rng.Float64()
	}
	e, err := ev.Energy(ctx, x)
	if err != nil {
		return err
	}
	h.f(e)
	if grad {
		g := make([]float64, len(x))
		if e, err = ev.EnergyGrad(ctx, x, g); err != nil {
			return err
		}
		h.f(e)
		h.fs(g)
	}
	spec := evaluator.OutputSpec{
		CVaRAlphas:  []float64{0.5, 0.1},
		Shots:       200,
		Seed:        7,
		ProbIndices: []uint64{0, 5, 1<<uint(n) - 1},
		Variance:    true,
	}
	out, err := ev.EvalOutputs(ctx, x, spec)
	if err != nil {
		return err
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
		return err
	}
	if sim != nil {
		h.fs(sim.CostDiagonal())
		h.f(sim.MinCost())
		h.us(sim.GroundStates())
	}
	return nil
}

// forwardDigestLines is the last part of the table: one line per
// configuration of a line above that carries a gradient, hashing what
// it returns without one. Core configurations hash digestOf's values
// but the EnergyGrad call, then stateDigest's but the Z₀ gradient;
// distsim engines hash digestOf's values but the EnergyGrad call, then
// the forward one-shot at the same options, gathered in float64. A
// change to the reverse step alone moves none of these lines.
func forwardDigestLines(t *testing.T) []string {
	t.Helper()
	ctx := context.Background()
	configs, added := digestCoreConfigs()
	var lines []string
	for _, n := range []int{8, 12} {
		for _, c := range append(configs, added...) {
			for _, prob := range digestProblems(t, n) {
				sim := c.build(t, n, prob.terms)
				for _, p := range []int{1, 4} {
					label := fmt.Sprintf("%s %s n=%d %v p=%d forward", c.name, prob.name, n, c.mixer, p)
					h := digestHash{sha256.New()}
					if err := hashOutputs(ctx, h, sim.NewWorkspace(), sim, n, p, false); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if err := hashState(h, sim, n, p, false); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					lines = append(lines, label+" "+hex.EncodeToString(h.Sum(nil)))
				}
			}
		}
		for _, prec := range []distsim.Precision{distsim.PrecisionFloat64, distsim.PrecisionFloat32} {
			for _, ranks := range []int{1, 2, 4} {
				for _, prob := range digestProblems(t, n) {
					for _, mixer := range []core.Mixer{core.MixerX, core.MixerXYRing} {
						opts := distsim.Options{Ranks: ranks, Mixer: mixer, Precision: prec}
						eng, err := distsim.NewGradEngine(n, prob.terms, opts)
						if err != nil {
							t.Fatal(err)
						}
						opts.Gather = prec == distsim.PrecisionFloat64
						for _, p := range []int{1, 4} {
							label := fmt.Sprintf("distsim/%v/K%d %s n=%d %v p=%d forward", prec, ranks, prob.name, n, mixer, p)
							h := digestHash{sha256.New()}
							if err := hashOutputs(ctx, h, eng, nil, n, p, false); err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							gamma, beta := digestAngles(n, p)
							res, err := distsim.SimulateQAOA(ctx, n, prob.terms, gamma, beta, opts)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							hashRun(h, res)
							lines = append(lines, label+" "+hex.EncodeToString(h.Sum(nil)))
						}
					}
				}
			}
		}
	}
	return lines
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
