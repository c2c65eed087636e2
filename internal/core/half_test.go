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

	"qokit/internal/evaluator"
	"qokit/internal/gatesim"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

// requireHalfSide asserts which side of the half-state rule s is on,
// so a test meant to cover one side cannot silently drift to the other.
func requireHalfSide(tb testing.TB, label string, s *Simulator, want bool) {
	tb.Helper()
	if s.half != want {
		tb.Fatalf("%s: stores the half state = %v, want %v", label, s.half, want)
	}
}

// namedTerms is one problem instance of the half-state tests.
type namedTerms struct {
	name  string
	terms poly.Terms
}

// halfProblems returns the flip-symmetric families at n qubits, whose
// terms all have even degree: LABS, MaxCut (a ring below 4 vertices,
// else a random 3-regular graph, 4-regular for odd n) and SK.
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
		{"labs", problems.LABSTerms(n)},
		{"maxcut", problems.MaxCutTerms(g)},
		{"sk", skTerms(n, int64(100+n))},
	}
}

// TestHalfStateRule pins which simulators store the half state: SoA in
// either precision with the x mixer, the default start, n ≥ 2 and a
// flip-symmetric diagonal, whatever the phase options; nothing else.
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
	for _, c := range []struct {
		label string
		n     int
		terms poly.Terms
		opts  Options
		half  bool
	}{
		{"labs soa", n, labs, Options{Backend: BackendSoA}, true},
		{"labs auto", n, labs, Options{}, true},
		{"labs soa32", n, labs, Options{SinglePrecision: true}, true},
		{"maxcut", n, problems.MaxCutTerms(g), Options{}, true},
		{"sk", n, skTerms(n, 5), Options{}, true},
		{"labs SeparatePhase", n, labs, Options{SeparatePhase: true}, true},
		{"labs RecomputePhase", n, labs, Options{RecomputePhase: true}, true},
		{"labs n=2", 2, problems.LABSTerms(2), Options{}, true},
		{"labs serial", n, labs, Options{Backend: BackendSerial}, false},
		{"labs parallel", n, labs, Options{Backend: BackendParallel}, false},
		{"sat", n, problems.SATTerms(sat), Options{}, false},
		{"maxcut with a linear field", n, append(problems.MaxCutTerms(g), poly.NewTerm(0.5, 2)), Options{}, false},
		{"portfolio under x", n, problems.SyntheticPortfolio(n, n/2, 0.5, 3).PortfolioTerms(), Options{}, false},
		{"labs custom InitialState", n, labs, Options{InitialState: statevec.NewUniform(n)}, false},
		{"labs xy-ring", n, labs, Options{Mixer: MixerXYRing}, false},
		{"labs xy-complete", n, labs, Options{Mixer: MixerXYComplete, SinglePrecision: true}, false},
		{"constant n=1", 1, poly.New(poly.NewTerm(0.5)), Options{}, false},
	} {
		s, err := New(c.n, c.terms, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		requireHalfSide(t, c.label, s, c.half)
		want := int64(16) << uint(c.n)
		if c.opts.SinglePrecision {
			want /= 2
		}
		if got := s.Caps().StateBytes; got != want {
			t.Errorf("%s: Caps().StateBytes = %d, want the full state's %d", c.label, got, want)
		}
	}
}

// TestHalfStateDifferential is the half state's differential gate. Its
// subjects are the half-state SoA and SoA32 simulators; its references
// are the full state on the same backend (reached through an explicit
// uniform InitialState), the Serial backend (n ≤ 14) and the gate-level
// simulator (n ≤ 10). On LABS, MaxCut and SK at n ∈ {2, 3, 8, 13, 14,
// 18} and p ∈ {1, 4, 12} it checks energies and adjoint gradients,
// observable gradients for a symmetric and a non-symmetric observable,
// incremental ApplyLayer, and every output, each to 1e-12 of the
// reference's max-norm in float64 and within the SoA32 band (2e-3) in
// float32; the samples pass a χ² test against the full state. At
// n = 18 the observables and the outputs run at p = 4 only, which keeps
// the suite's race-detector run short; n ≥ 14 already runs the tiled
// kernels' later passes on the half planes.
func TestHalfStateDifferential(t *testing.T) {
	ns := []int{2, 3, 8, 13, 14, 18}
	if testing.Short() {
		ns = ns[:5]
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
		for _, prob := range halfProblems(t, n) {
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
				requireHalfSide(t, label, half, true)
				requireHalfSide(t, label+" full", full, false)
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

// checkHalfOutputs compares every output of the half state with the
// full state's: incremental ApplyLayer (bit-identical to a whole
// evolution), the expanded state vector (exactly flip-symmetric),
// norm, probabilities in both preserveState modes, overlap, CVaR,
// variance, and EvalOutputs' energy, variance and most probable state.
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
		half.ApplyLayer(inc, gamma[l], beta[l])
	}
	sv := rh.StateVector()
	if d := statevec.MaxAbsDiff(inc.StateVector(), sv); d != 0 {
		t.Errorf("%s: incremental ApplyLayer differs from SimulateQAOA by %g", label, d)
	}
	mask := len(sv) - 1
	for x := range sv {
		if sv[x] != sv[x^mask] {
			t.Fatalf("%s: expanded state not flip-symmetric at %d", label, x)
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
	spec := evaluator.OutputSpec{Variance: true, CVaRAlphas: []float64{0.5}}
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

// TestHalfSeedSymmetricObsBitwise: on a half state the adjoint's bra
// seed for a symmetric observable equals obs_r·ψ_r bit for bit, as the
// full state's copy-and-multiply seed computes it.
func TestHalfSeedSymmetricObsBitwise(t *testing.T) {
	const n = 9
	rng := rand.New(rand.NewSource(67))
	gamma, beta := randomAngles(rng, 3)
	obs := make([]float64, 1<<n)
	for x := range obs {
		obs[x] = float64(1 - 2*((x^x>>(n-1))&1))
	}
	for _, single := range []bool{false, true} {
		s, err := New(n, problems.LABSTerms(n), Options{SinglePrecision: single})
		if err != nil {
			t.Fatal(err)
		}
		requireHalfSide(t, "labs", s, true)
		w := s.NewGradBuffers()
		if err := s.SimulateQAOAInto(w.psi, gamma, beta); err != nil {
			t.Fatal(err)
		}
		s.seedBra(w, obs)
		want := s.NewResult()
		if single {
			want.soa32.Copy(w.psi.soa32)
			want.soa32.MulDiag(s.pool, obs[:1<<(n-1)])
		} else {
			want.soa.Copy(w.psi.soa)
			want.soa.MulDiag(s.pool, obs[:1<<(n-1)])
		}
		if d := statevec.MaxAbsDiff(w.lam.StateVector(), want.StateVector()); d != 0 {
			t.Errorf("single=%v: symmetric seed differs from obs⊙ψ by %g", single, d)
		}
	}
}

// halfSink keeps the benchmarked energies live.
var halfSink float64

// BenchmarkHalfState times a forward evaluation (energy) and an adjoint
// gradient on LABS at n = 18 and 20, p = 8, on the half state and on
// the full state of the same diagonal, reached through an explicit
// uniform InitialState.
func BenchmarkHalfState(b *testing.B) {
	const p = 8
	gamma, beta := make([]float64, p), make([]float64, p)
	for l := range gamma {
		f := (float64(l) + 0.5) / p
		gamma[l], beta[l] = 0.75*f, 0.75*(1-f)
	}
	gG, gB := make([]float64, p), make([]float64, p)
	for _, n := range []int{18, 20} {
		diag := problemDiag(b, n)
		for _, side := range []struct {
			name string
			opts Options
		}{
			{"half", Options{}},
			{"full", Options{InitialState: statevec.NewUniform(n)}},
		} {
			s, err := NewFromDiagonal(n, diag, side.opts)
			if err != nil {
				b.Fatal(err)
			}
			requireHalfSide(b, side.name, s, side.name == "half")
			r, buf := s.NewResult(), s.NewGradBuffers()
			b.Run(fmt.Sprintf("n=%d/forward/%s", n, side.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := s.SimulateQAOAInto(r, gamma, beta); err != nil {
						b.Fatal(err)
					}
					halfSink = r.Expectation()
				}
			})
			b.Run(fmt.Sprintf("n=%d/gradient/%s", n, side.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e, err := s.SimulateQAOAGradInto(buf, gamma, beta, gG, gB)
					if err != nil {
						b.Fatal(err)
					}
					halfSink = e
				}
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
