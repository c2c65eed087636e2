package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"qokit/internal/evaluator"
	"qokit/internal/gatesim"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

// requireGroupSide asserts which side of the group-state rule s is on
// (a state stored over h ≥ 1 pivots, or the full state), so a test
// meant to cover one side cannot silently drift to the other.
func requireGroupSide(tb testing.TB, label string, s *Simulator, want bool) {
	tb.Helper()
	if got := len(s.group()) > 1; got != want {
		tb.Fatalf("%s: stores a group state = %v, want %v", label, got, want)
	}
}

// requirePivots asserts that s stores its states over exactly h pivots.
func requirePivots(tb testing.TB, label string, s *Simulator, h int) {
	tb.Helper()
	if got := s.pivots(); got != h {
		tb.Fatalf("%s: stores the state over %d pivots, want %d", label, got, h)
	}
}

// namedTerms is one problem instance of the group-state tests, with the
// number of pivots its simulator must take.
type namedTerms struct {
	name  string
	terms poly.Terms
	h     int
}

// halfProblems returns the families whose symmetry group at n qubits is
// the complement alone, {0, 1…1}, so they take the half state (h = 1):
// MaxCut (a ring below 4 vertices, else a random 3-regular graph,
// 4-regular for odd n) and SK.
func halfProblems(t *testing.T, n int) []namedTerms {
	t.Helper()
	g := graphs.Ring(n)
	if n >= 4 {
		var err error
		if g, err = graphs.RandomRegular(n, 3+n%2, int64(n)); err != nil {
			t.Fatal(err)
		}
	}
	return []namedTerms{
		{"maxcut", problems.MaxCutTerms(g), 1},
		{"sk", skTerms(n, int64(100+n)), 1},
	}
}

// labsZ0 is LABS plus one Z₀ field. At even n its symmetry group is
// {0, 1010…10}, the alternating flip that leaves qubit 0 alone, so it
// takes one pivot whose μ is not the complement; at odd n that flip
// misses the top qubit and the state stays full.
func labsZ0(n int) poly.Terms {
	return problems.LABSTerms(n).Plus(poly.New(poly.NewTerm(1, 0)))
}

// quarterProblems returns LABS, whose symmetry group {0, 0101…,
// 1010…, 1…1} gives it two pivots from n = 4 on (the quarter state)
// and one below (n = 2, a constant, and n = 3, whose pivot is 101 with
// μ = 01, not the complement), and at even n LABS plus a Z₀ field (one
// pivot, μ = 1010…10).
func quarterProblems(t *testing.T, n int) []namedTerms {
	t.Helper()
	h := 2
	if n < 4 {
		h = 1
	}
	out := []namedTerms{{"labs", problems.LABSTerms(n), h}}
	if n%2 == 0 && n >= 4 {
		out = append(out, namedTerms{"labs+z0", labsZ0(n), 1})
	}
	return out
}

// TestHalfStateRule pins which simulators store a group state, and over
// how many pivots: SoA in either precision with the x mixer, the
// default start and a cost whose symmetry group carries top bits,
// whatever the phase options; nothing else. Caps reports the stored
// state, 2^(n−h) amplitudes.
func TestHalfStateRule(t *testing.T) {
	const n = 8
	g, err := graphs.RandomRegular(n, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	sat, err := problems.RandomKSAT(n, 3, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	labs := problems.LABSTerms(n)
	z0z1 := labsZ0(n).Plus(poly.New(poly.NewTerm(1, 1)))
	for _, c := range []struct {
		label string
		n     int
		terms poly.Terms
		opts  Options
		h     int
	}{
		{"labs soa", n, labs, Options{Backend: BackendSoA}, 2},
		{"labs auto", n, labs, Options{}, 2},
		{"labs soa32", n, labs, Options{SinglePrecision: true}, 2},
		{"maxcut", n, problems.MaxCutTerms(g), Options{}, 1},
		{"sk", n, skTerms(n, 5), Options{}, 1},
		{"labs+z0 even n", n, labsZ0(n), Options{}, 1},
		{"labs+z0 odd n", n + 1, labsZ0(n + 1), Options{}, 0},
		{"labs+z0+z1", n, z0z1, Options{}, 0},
		{"labs n=2", 2, problems.LABSTerms(2), Options{}, 1},
		{"labs n=3", 3, problems.LABSTerms(3), Options{}, 1},
		{"labs serial", n, labs, Options{Backend: BackendSerial}, 0},
		{"sat", n, problems.SATTerms(sat), Options{}, 0},
		{"maxcut with a linear field", n, append(problems.MaxCutTerms(g), poly.NewTerm(0.5, 2)), Options{}, 0},
		{"portfolio under x", n, problems.SyntheticPortfolio(n, n/2, 0.5, 3).PortfolioTerms(), Options{}, 0},
		{"labs custom InitialState", n, labs, Options{InitialState: statevec.NewUniform(n)}, 0},
		{"labs xy-ring", n, labs, Options{Mixer: MixerXYRing}, 0},
		{"labs xy-complete", n, labs, Options{Mixer: MixerXYComplete, SinglePrecision: true}, 0},
		{"constant n=1", 1, poly.New(poly.NewTerm(0.5)), Options{}, 0},
	} {
		s, err := New(c.n, c.terms, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		requirePivots(t, c.label, s, c.h)
		diag := s.CostDiagonal()
		for x := range diag {
			for _, g := range s.group() {
				if diag[x] != diag[uint64(x)^g] {
					t.Fatalf("%s: group element %b does not fix the cost at %d", c.label, g, x)
				}
			}
		}
		want := int64(16) << uint(c.n-c.h)
		if c.opts.SinglePrecision {
			want /= 2
		}
		if got := s.Caps().StateBytes; got != want {
			t.Errorf("%s: Caps().StateBytes = %d, want the stored state's %d", c.label, got, want)
		}
	}
}

// TestHalfStateDifferential is the half state's differential gate, on
// MaxCut and SK (one pivot, the complement). Its subjects are the
// half-state SoA and SoA32 simulators; its references are the full
// state on the same backend (reached through an explicit uniform
// InitialState), the Serial backend (n ≤ 14) and the gate-level
// simulator (n ≤ 10), at n ∈ {2, 3, 8, 13, 14, 18} and p ∈ {1, 4, 12}
// (see runGroupDifferential).
func TestHalfStateDifferential(t *testing.T) {
	runGroupDifferential(t, []int{2, 3, 8, 13, 14, 18}, halfProblems)
}

// TestQuarterStateDifferential is the same gate for LABS, which stores
// a quarter state (two pivots) from n = 4 on and a half state below, at
// n ∈ {2, 3, 4, 5, 8, 13, 14, 18}, and for LABS plus a Z₀ field at even
// n ≥ 4, whose one pivot pairs i with i ⊕ 1010…10 instead of the
// mirror.
func TestQuarterStateDifferential(t *testing.T) {
	runGroupDifferential(t, []int{2, 3, 4, 5, 8, 13, 14, 18}, quarterProblems)
}

// runGroupDifferential checks, for each problem at each n, energies
// and adjoint gradients, observable gradients for a complement-symmetric
// and a non-symmetric observable, incremental ApplyLayer, and every
// output, each to 1e-12 of the reference's max-norm in float64 and
// within the SoA32 band (2e-3) in float32; the samples pass a χ² test
// against the full state. At n = 18 the observables and the outputs
// run at p = 4 only, which keeps the suite's race-detector run short,
// and -short skips n = 18; n ≥ 14 already runs the tiled kernels' later
// passes on the stored planes.
func runGroupDifferential(t *testing.T, ns []int, problemsAt func(*testing.T, int) []namedTerms) {
	if testing.Short() {
		ns = ns[:len(ns)-1]
	}
	rng := rand.New(rand.NewSource(61))
	for _, n := range ns {
		uniform := statevec.NewUniform(n)
		size := 1 << uint(n)
		sym, asym := make([]float64, size), make([]float64, size)
		for x := range sym {
			sym[x] = float64(min(x, x^(size-1))*37%11) - 4.5
			asym[x] = float64(x%7) - 2.5
		}
		for _, prob := range problemsAt(t, n) {
			serial, err := New(n, prob.terms, Options{Backend: BackendSerial})
			if err != nil {
				t.Fatal(err)
			}
			diag := serial.CostDiagonal()
			for _, single := range []bool{false, true} {
				label := fmt.Sprintf("%s n=%d single=%v", prob.name, n, single)
				half, err := NewFromDiagonal(n, diag, Options{Backend: BackendSoA, SinglePrecision: single, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				full, err := NewFromDiagonal(n, diag, Options{Backend: BackendSoA, SinglePrecision: single, Workers: 2, InitialState: uniform})
				if err != nil {
					t.Fatal(err)
				}
				requirePivots(t, label, half, prob.h)
				requireGroupSide(t, label+" full", full, false)
				refs := map[string]*Simulator{"full": full}
				if n <= 14 {
					refs["serial"] = serial
				}
				tol := 1e-12
				if single {
					tol = 2e-3
				}
				for _, p := range []int{1, 4, 12} {
					gamma, beta := randomAngles(rng, p)
					pl := fmt.Sprintf("%s p=%d", label, p)
					obs := map[string][]float64{"cost": nil}
					every := n < 18 || p == 4
					if every {
						obs["symmetric obs"], obs["non-symmetric obs"] = sym, asym
					}
					checkHalfGrad(t, pl, half, refs, gamma, beta, obs, tol)
					if every {
						checkHalfOutputs(t, pl, half, full, gamma, beta, tol)
					}
					if p == 4 && n >= 8 {
						checkHalfSamples(t, pl, half, full, gamma, beta)
					}
					if n <= 10 && !single {
						checkHalfGateLevel(t, pl, half, prob.terms, gamma, beta)
					}
				}
			}
		}
	}
}

// maxNormClose requires |got − want| ≤ tol·scale for each entry.
func maxNormClose(t *testing.T, label string, got, want []float64, tol, scale float64) {
	t.Helper()
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > tol*scale {
			t.Errorf("%s[%d] = %v, want %v (|Δ| = %.3g > %.3g)", label, i, got[i], want[i], d, tol*scale)
		}
	}
}

// checkHalfGrad compares the half state's value and adjoint gradient
// for each observable (nil: the cost) with each reference's, to tol of
// the reference's max-norm over (E, ∇E), floored at 1 (symmetries of a
// problem can make an observable's gradient vanish).
func checkHalfGrad(t *testing.T, label string, half *Simulator, refs map[string]*Simulator, gamma, beta []float64, observables map[string][]float64, tol float64) {
	t.Helper()
	run := func(s *Simulator, obs []float64) []float64 {
		p := len(gamma)
		out := make([]float64, 1+2*p)
		var err error
		if obs == nil {
			out[0], err = s.SimulateQAOAGradInto(s.NewGradBuffers(), gamma, beta, out[1:1+p], out[1+p:])
		} else {
			out[0], err = s.SimulateQAOAGradObsInto(s.NewGradBuffers(), gamma, beta, obs, out[1:1+p], out[1+p:])
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return out
	}
	for obsName, obs := range observables {
		got := run(half, obs)
		for refName, ref := range refs {
			want := run(ref, obs)
			maxNormClose(t, fmt.Sprintf("%s %s vs %s (E, ∇E)", label, obsName, refName), got, want, tol, math.Max(maxAbs(want), 1))
		}
	}
}

// checkHalfOutputs compares every output of a group state with the
// full state's: incremental ApplyLayer (bit-identical to a whole
// evolution), the expanded state vector (exactly fixed by the group),
// norm, probabilities in both preserveState modes, overlap, CVaR,
// variance, and EvalOutputs' energy, variance and most probable state.
// EvalOutputs reads MaxProb, its index and the probability queries off
// the stored amplitudes; they must equal the argmax and the entries of
// the group state's own expanded probabilities bit for bit.
func checkHalfOutputs(t *testing.T, label string, half, full *Simulator, gamma, beta []float64, tol float64) {
	t.Helper()
	rh, err := half.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := full.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := half.SimulateQAOA(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for l := range gamma {
		if err := half.ApplyLayer(inc, gamma[l], beta[l]); err != nil {
			t.Fatal(err)
		}
	}
	sv := rh.StateVector()
	if d := statevec.MaxAbsDiff(inc.StateVector(), sv); d != 0 {
		t.Errorf("%s: incremental ApplyLayer differs from SimulateQAOA by %g", label, d)
	}
	for x := range sv {
		for _, g := range half.group() {
			if sv[x] != sv[uint64(x)^g] {
				t.Fatalf("%s: expanded state not fixed by group element %b at %d", label, g, x)
			}
		}
	}
	// Amplitudes and probabilities are O(2^−n/2) and O(2^−n), so the
	// float32 band is the one TestSinglePrecisionTracksDouble uses.
	ampTol, probTol := 1e-12, 1e-12
	if tol > 1e-12 {
		ampTol, probTol = 1e-4, 1e-5
	}
	if d := statevec.MaxAbsDiff(sv, rf.StateVector()); d > ampTol {
		t.Errorf("%s: state vector differs from the full state by %g", label, d)
	}
	if d := math.Abs(rh.Norm() - 1); d > ampTol {
		t.Errorf("%s: norm %v", label, rh.Norm())
	}
	ph, pf := rh.Probabilities(nil, true), rf.Probabilities(nil, true)
	maxNormClose(t, label+" probabilities", ph, pf, probTol, 1)
	dst := make([]float64, len(ph))
	if got := rh.Probabilities(dst, false); &got[0] != &dst[0] || !equalBits(got, ph) {
		t.Errorf("%s: Probabilities(dst, false) does not fill dst with the probabilities", label)
	}
	scale := math.Max(1, math.Abs(rf.Expectation()))
	closeTo := func(name string, got, want, tol float64) {
		t.Helper()
		if d := math.Abs(got - want); d > tol {
			t.Errorf("%s %s = %v, want %v (|Δ| = %.3g)", label, name, got, want, d)
		}
	}
	closeTo("energy", rh.Expectation(), rf.Expectation(), tol*scale)
	closeTo("overlap", rh.Overlap(), rf.Overlap(), ampTol)
	// CVaR and the variance add up 2^n probabilities in cost order, and
	// CVaR(α) divides by α, so in float64 they get 1e-10 of the scale.
	for _, a := range []float64{0.05, 0.5, 1} {
		ch, err := rh.CVaR(a)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := rf.CVaR(a)
		if err != nil {
			t.Fatal(err)
		}
		closeTo(fmt.Sprintf("CVaR(%v)", a), ch, cf, math.Max(tol, 1e-10)*scale)
	}
	closeTo("variance", rh.Variance(), rf.Variance(), math.Max(tol, 1e-10)*scale*scale)

	x := append(append([]float64(nil), gamma...), beta...)
	queries := make([]uint64, len(ph))
	for q := range queries {
		queries[q] = uint64(q)
	}
	spec := evaluator.OutputSpec{Variance: true, CVaRAlphas: []float64{0.5}, ProbIndices: queries}
	oh, err := half.EvalOutputs(context.Background(), x, spec)
	if err != nil {
		t.Fatal(err)
	}
	of, err := full.EvalOutputs(context.Background(), x, spec)
	if err != nil {
		t.Fatal(err)
	}
	if oh.Energy != rh.Expectation() || oh.Variance != rh.Variance() || oh.Overlap != rh.Overlap() {
		t.Errorf("%s: EvalOutputs (%v, %v, %v) differs from the Result's (%v, %v, %v)",
			label, oh.Energy, oh.Variance, oh.Overlap, rh.Expectation(), rh.Variance(), rh.Overlap())
	}
	wantP, wantIdx := -1.0, uint64(0)
	for q, p := range ph {
		if p > wantP {
			wantP, wantIdx = p, uint64(q)
		}
	}
	if math.Float64bits(oh.MaxProb) != math.Float64bits(wantP) || oh.MaxProbIndex != wantIdx {
		t.Errorf("%s: EvalOutputs MaxProb %v at %d, expanded probabilities %v at %d", label, oh.MaxProb, oh.MaxProbIndex, wantP, wantIdx)
	}
	if !equalBits(oh.Probs, ph) {
		t.Errorf("%s: EvalOutputs probability queries differ from the expanded probabilities", label)
	}
	closeTo("MaxProb", oh.MaxProb, of.MaxProb, probTol)
	// x and x̄ (and, for LABS, the images of x under its other
	// symmetries) are equally likely, so rounding decides which of them
	// each side reports; the full state must give either one the
	// largest probability.
	closeTo("full-state probability at MaxProbIndex", pf[oh.MaxProbIndex], of.MaxProb, probTol)
}

// equalBits reports whether a and b hold the same float64 bits.
func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkHalfSamples draws shots from the half state and runs a χ²
// goodness-of-fit test against the full state's distribution, over 10
// probability-ranked bins of about equal mass.
func checkHalfSamples(t *testing.T, label string, half, full *Simulator, gamma, beta []float64) {
	t.Helper()
	const shots, bins = 20000, 10
	rf, err := full.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	probs := rf.Probabilities(nil, true)
	order := make([]int, len(probs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return probs[order[a]] > probs[order[b]] })
	binOf := make([]int, len(probs))
	mass := make([]float64, bins)
	b, acc := 0, 0.0
	for _, x := range order {
		binOf[x] = b
		mass[b] += probs[x]
		acc += probs[x]
		if acc > float64(b+1)/bins && b < bins-1 {
			b++
		}
	}
	x := append(append([]float64(nil), gamma...), beta...)
	out, err := half.EvalOutputs(context.Background(), x, evaluator.OutputSpec{Shots: shots, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, bins)
	for _, s := range out.Samples {
		counts[binOf[s]]++
	}
	var chi2 float64
	df := -1
	for i, m := range mass {
		if m == 0 {
			continue
		}
		e := m * shots
		chi2 += (counts[i] - e) * (counts[i] - e) / e
		df++
	}
	// χ² critical values at p = 0.001 for df = 1…9.
	crit := []float64{10.83, 13.82, 16.27, 18.47, 20.52, 22.46, 24.32, 26.12, 27.88}
	if df >= 1 && chi2 > crit[df-1] {
		t.Errorf("%s: samples χ² = %.2f over %d degrees of freedom exceeds %.2f (p < 0.001)", label, chi2, df, crit[df-1])
	}
}

// checkHalfGateLevel compares the half state's energy and expanded
// probabilities with the gate-level circuit simulation of the same
// QAOA unitary, an implementation that shares none of its kernels.
func checkHalfGateLevel(t *testing.T, label string, half *Simulator, terms poly.Terms, gamma, beta []float64) {
	t.Helper()
	n := half.NumQubits()
	circ, err := gatesim.BuildQAOA(n, terms, gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	v, err := gatesim.NewEngine().Simulate(circ)
	if err != nil {
		t.Fatal(err)
	}
	r, err := half.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	want := statevec.ExpectationDiag(v, half.CostDiagonal())
	if d := math.Abs(r.Expectation() - want); d > 1e-12*math.Max(1, math.Abs(want)) {
		t.Errorf("%s: energy %v, gate level %v (|Δ| = %.3g)", label, r.Expectation(), want, d)
	}
	maxNormClose(t, label+" probabilities vs gate level", r.Probabilities(nil, true), v.Probabilities(nil), 1e-12, 1)
}

// TestHalfSeedSymmetricObsBitwise: on a group state (LABS, two pivots)
// the adjoint's bra seed for an observable the group fixes equals
// obs_i·ψ_i bit for bit, as the full state's copy-and-multiply seed
// computes it. The cost diagonal is such an observable: its gradient
// through the observable seed (the orbit sum over the group, divided by
// 2^h) must equal the cost gradient, seeded by the copy and multiply,
// bit for bit, and so must the expectations.
func TestHalfSeedSymmetricObsBitwise(t *testing.T) {
	const n, p = 9, 3
	rng := rand.New(rand.NewSource(67))
	gamma, beta := randomAngles(rng, p)
	for _, single := range []bool{false, true} {
		s, err := New(n, problems.LABSTerms(n), Options{SinglePrecision: single})
		if err != nil {
			t.Fatal(err)
		}
		requirePivots(t, "labs", s, 2)
		obs := s.CostDiagonal()
		gg, gb := make([]float64, p), make([]float64, p)
		e, err := s.SimulateQAOAGradObsInto(s.NewGradBuffers(), gamma, beta, obs, gg, gb)
		if err != nil {
			t.Fatal(err)
		}
		want, wg, wb, err := s.SimulateQAOAGrad(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(e) != math.Float64bits(want) || !bitsEqual(gg, wg) || !bitsEqual(gb, wb) {
			t.Errorf("single=%v: symmetric seed gives (%v, %v, %v), copy-and-multiply (%v, %v, %v)", single, e, gg, gb, want, wg, wb)
		}
	}
}

// bitsEqual reports whether a and b hold the same float64 bits.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// halfSink keeps the benchmarked energies live.
var halfSink float64

// BenchmarkHalfState times a forward evaluation (energy) and an adjoint
// gradient at n = 18 and 20, p = 8, on both sides of the group-state
// rule: LABS on its quarter state (labs-h2) and on the full state of
// the same diagonal, reached through an explicit uniform InitialState
// (labs-full), and 3-regular MaxCut on its half state (maxcut-h1).
// Each iteration runs one forward evaluation and then one gradient,
// timed apart, so both read the same stretch of host speed: fwd-ns/op
// and grad-ns/op are their mean times, and grad/fwd their ratio, the
// gradient's cost in forward passes.
func BenchmarkHalfState(b *testing.B) {
	const p = 8
	gamma, beta := make([]float64, p), make([]float64, p)
	for l := range gamma {
		f := (float64(l) + 0.5) / p
		gamma[l], beta[l] = 0.75*f, 0.75*(1-f)
	}
	gG, gB := make([]float64, p), make([]float64, p)
	for _, n := range []int{18, 20} {
		labs := problemDiag(b, n)
		g, err := graphs.RandomRegular(n, 3, int64(n))
		if err != nil {
			b.Fatal(err)
		}
		maxcut, err := New(n, problems.MaxCutTerms(g), Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, side := range []struct {
			name string
			diag []float64
			opts Options
			h    int
		}{
			{"labs-h2", labs, Options{}, 2},
			{"maxcut-h1", maxcut.CostDiagonal(), Options{}, 1},
			{"labs-full", labs, Options{InitialState: statevec.NewUniform(n)}, 0},
		} {
			s, err := NewFromDiagonal(n, side.diag, side.opts)
			if err != nil {
				b.Fatal(err)
			}
			requirePivots(b, side.name, s, side.h)
			r, buf := s.NewResult(), s.NewGradBuffers()
			b.Run(fmt.Sprintf("n=%d/%s", n, side.name), func(b *testing.B) {
				var fwd, grad time.Duration
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					if err := s.SimulateQAOAInto(r, gamma, beta); err != nil {
						b.Fatal(err)
					}
					halfSink = r.Expectation()
					t1 := time.Now()
					e, err := s.SimulateQAOAGradInto(buf, gamma, beta, gG, gB)
					if err != nil {
						b.Fatal(err)
					}
					halfSink = e
					fwd += t1.Sub(t0)
					grad += time.Since(t1)
				}
				b.ReportMetric(float64(fwd.Nanoseconds())/float64(b.N), "fwd-ns/op")
				b.ReportMetric(float64(grad.Nanoseconds())/float64(b.N), "grad-ns/op")
				b.ReportMetric(float64(grad)/float64(fwd), "grad/fwd")
			})
		}
	}
}

// TestNonFiniteDiagonalRejected: the construction pass that tests flip
// symmetry rejects a NaN or ±Inf diagonal entry, in either half of the
// diagonal and on every backend and mixer, with an error wrapping
// poly.ErrNonFiniteCost that names the entry.
func TestNonFiniteDiagonalRejected(t *testing.T) {
	const n = 6
	diag := problemDiag(t, n)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, x := range []int{0, 5, 1<<(n-1) + 3, 1<<n - 1} {
			d := append([]float64(nil), diag...)
			d[x] = bad
			for _, opts := range []Options{{}, {Backend: BackendSerial}, {SinglePrecision: true}, {Mixer: MixerXYRing}} {
				_, err := NewFromDiagonal(n, d, opts)
				if !errors.Is(err, poly.ErrNonFiniteCost) || !strings.Contains(err.Error(), fmt.Sprintf("entry %d ", x)) {
					t.Errorf("entry %d = %v, %+v: error %v, want ErrNonFiniteCost naming the entry", x, bad, opts, err)
				}
			}
		}
	}
}

// TestHalfStateWiderTermGroup: costs whose term group is larger than the
// budgeted diagonal search finds — a constant at n = 10 (term h = 9,
// searched h = 3) and Z₀Z₁ alone (8 and 3) — store the state over the
// term group when built from terms, as a two- and a four-amplitude
// state, and still match Serial, the searched group's state and the
// full state within the differential tolerances in both precisions.
func TestHalfStateWiderTermGroup(t *testing.T) {
	const n = 10
	rng := rand.New(rand.NewSource(67))
	for _, c := range []struct {
		name         string
		terms        poly.Terms
		term, search int
	}{
		{"constant", poly.New(poly.NewTerm(0.5)), 9, 3},
		{"z0z1", poly.New(poly.NewTerm(1, 0, 1)), 8, 3},
	} {
		serial, err := New(n, c.terms, Options{Backend: BackendSerial})
		if err != nil {
			t.Fatal(err)
		}
		diag := serial.CostDiagonal()
		for _, single := range []bool{false, true} {
			label := fmt.Sprintf("%s single=%v", c.name, single)
			opts := Options{SinglePrecision: single, Workers: 2}
			wide, err := New(n, c.terms, opts)
			if err != nil {
				t.Fatal(err)
			}
			searched, err := NewFromDiagonal(n, diag, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.InitialState = statevec.NewUniform(n)
			full, err := New(n, c.terms, opts)
			if err != nil {
				t.Fatal(err)
			}
			requirePivots(t, label+" terms", wide, c.term)
			requirePivots(t, label+" search", searched, c.search)
			tol := 1e-12
			if single {
				tol = 2e-3
			}
			for _, p := range []int{1, 4} {
				gamma, beta := randomAngles(rng, p)
				pl := fmt.Sprintf("%s p=%d", label, p)
				checkHalfGrad(t, pl, wide, map[string]*Simulator{"serial": serial, "searched": searched, "full": full}, gamma, beta, map[string][]float64{"cost": nil}, tol)
				checkHalfOutputs(t, pl, wide, full, gamma, beta, tol)
			}
		}
	}
}
