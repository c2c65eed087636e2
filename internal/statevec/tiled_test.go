package statevec

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// tiledShape is one (n, pool size) case of the tiled kernel tests. The
// pool size moves the tile boundaries: at n = 13 with 512 workers pass
// 1 shrinks to 4 qubits, so the layer takes three passes, the last a
// lone odd qubit; at n = 14 with 1024 it ends on the pair (12, 13).
type tiledShape struct{ n, workers int }

func tiledShapes(t *testing.T) []tiledShape {
	var out []tiledShape
	for _, n := range []int{1, 2, 3, 4, 5, 12, 13, 14, 15} {
		for _, w := range []int{1, 2, 3} {
			out = append(out, tiledShape{n, w})
		}
	}
	out = append(out, tiledShape{18, 2}, tiledShape{13, 512}, tiledShape{14, 1024})
	if !testing.Short() {
		out = append(out, tiledShape{20, 3}, tiledShape{21, 2})
	}
	return out
}

// tiledPhases returns the phase sources a tiled case runs with: none
// (the mixer alone), per-amplitude sincos of a random diagonal, and a
// level table over an integer grid.
func tiledPhases(rng *rand.Rand, size int, gamma float64) map[string]Phase {
	diag := make([]float64, size)
	for i := range diag {
		diag[i] = rng.NormFloat64() * 3
	}
	grid, codes, tab := randomLevels(rng, size, gamma)
	return map[string]Phase{
		"mixer":  {},
		"sincos": {Diag: diag, Gamma: gamma},
		"table":  {Diag: grid, Gamma: gamma, Codes: codes, Tab: tab},
	}
}

// pairwiseLayerRef is the untiled F = 2 layer written out one full pass
// at a time: the phase (when ph.Diag is set), then RX⊗RX on each qubit
// pair (0,1), (2,3), …, then RX alone on the last qubit of odd n.
func pairwiseLayerRef[T Float](re, im []T, ph Phase, beta float64) {
	n := numQubits(len(re))
	for i := range re {
		if ph.Diag == nil {
			break
		}
		var sn64, cs64 float64
		if ph.Codes != nil {
			cs64, sn64 = real(ph.Tab[ph.Codes[i]]), imag(ph.Tab[ph.Codes[i]])
		} else {
			sn64, cs64 = math.Sincos(-ph.Gamma * ph.Diag[i])
		}
		sn, cs := T(sn64), T(cs64)
		r, m := re[i], im[i]
		re[i] = r*cs - m*sn
		im[i] = r*sn + m*cs
	}
	s64, c64 := math.Sincos(beta)
	cc, ss, cs := T(c64*c64), T(s64*s64), T(c64*s64)
	q := 0
	for ; q+1 < n; q += 2 {
		st := 1 << uint(q)
		for base := 0; base < len(re); base += 4 * st {
			for i00 := base; i00 < base+st; i00++ {
				i01, i10, i11 := i00+st, i00+2*st, i00+3*st
				r00, m00, r01, m01 := re[i00], im[i00], re[i01], im[i01]
				r10, m10, r11, m11 := re[i10], im[i10], re[i11], im[i11]
				re[i00] = cc*r00 + cs*(m01+m10) - ss*r11
				im[i00] = cc*m00 - cs*(r01+r10) - ss*m11
				re[i01] = cc*r01 + cs*(m00+m11) - ss*r10
				im[i01] = cc*m01 - cs*(r00+r11) - ss*m10
				re[i10] = cc*r10 + cs*(m00+m11) - ss*r01
				im[i10] = cc*m10 - cs*(r00+r11) - ss*m01
				re[i11] = cc*r11 + cs*(m01+m10) - ss*r00
				im[i11] = cc*m11 - cs*(r01+r10) - ss*m00
			}
		}
	}
	if q < n {
		sn, c := T(s64), T(c64)
		st := 1 << uint(q)
		for l1 := 0; l1 < st; l1++ {
			l2 := l1 + st
			r1, i1, r2, i2 := re[l1], im[l1], re[l2], im[l2]
			re[l1] = c*r1 + sn*i2
			im[l1] = c*i1 - sn*r2
			re[l2] = c*r2 + sn*i1
			im[l2] = c*i2 - sn*r1
		}
	}
}

// planes is the test's view of a split state of either precision.
type planes[T Float] struct{ re, im []T }

func (s planes[T]) clone() planes[T] {
	return planes[T]{append([]T(nil), s.re...), append([]T(nil), s.im...)}
}

func (s planes[T]) vec() Vec {
	v := make(Vec, len(s.re))
	for i := range v {
		v[i] = complex(float64(s.re[i]), float64(s.im[i]))
	}
	return v
}

// bitDiff returns the first index where a and b differ in any bit, or −1.
func bitDiff[T Float](a, b planes[T]) int {
	for i := range a.re {
		if a.re[i] != b.re[i] || a.im[i] != b.im[i] {
			return i
		}
	}
	return -1
}

func randomPlanes[T Float](rng *rand.Rand, n int) planes[T] {
	v := randState(rng, n)
	s := planes[T]{make([]T, len(v)), make([]T, len(v))}
	for i, a := range v {
		s.re[i], s.im[i] = T(real(a)), T(imag(a))
	}
	return s
}

// checkTiledLayer runs the tiled forward layer on every shape and
// phase source and requires it to match the pairwise reference bit for
// bit; for float64 it must also agree with the per-qubit ApplyRX sweep
// to 1e-13.
func checkTiledLayer[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, sh := range tiledShapes(t) {
		p := NewPool(sh.workers)
		beta, gamma := 0.29+0.11*float64(sh.n), 0.83-0.05*float64(sh.n)
		in := randomPlanes[T](rng, sh.n)
		for name, ph := range tiledPhases(rng, len(in.re), gamma) {
			label := fmt.Sprintf("n=%d workers=%d %s", sh.n, sh.workers, name)
			got := in.clone()
			if ph.Diag == nil {
				UniformRXPlanes(p, got.re, got.im, Phase{}, beta)
			} else {
				ph.check("test", len(got.re))
				UniformRXPlanes(p, got.re, got.im, ph, beta)
			}
			want := in.clone()
			pairwiseLayerRef(want.re, want.im, ph, beta)
			if i := bitDiff(got, want); i >= 0 {
				t.Fatalf("%s: tiled layer differs from the pairwise reference at %d: %v%+vi vs %v%+vi",
					label, i, got.re[i], got.im[i], want.re[i], want.im[i])
			}
			if _, single := any(got.re).([]float32); single {
				continue
			}
			perQubit := in.clone()
			if ph.Diag != nil {
				phaseRangePlanes(perQubit.re, perQubit.im, ph, 0, len(perQubit.re))
			}
			for q := 0; q < sh.n; q++ {
				applyRXPlanes(p, perQubit.re, perQubit.im, q, beta)
			}
			if d := MaxAbsDiff(got.vec(), perQubit.vec()); d > 1e-13 {
				t.Fatalf("%s: tiled layer differs from the per-qubit sweep by %g", label, d)
			}
		}
	}
}

func TestTiledLayerMatchesPairwise(t *testing.T)      { checkTiledLayer[float64](t) }
func TestTiledLayerSoA32MatchesPairwise(t *testing.T) { checkTiledLayer[float32](t) }

// checkTiledReverse runs the tiled reverse step and requires the
// states to end bit-identical to per-qubit ApplyRX(−β) steps on both
// followed by the phase undo (the forward phase at −γ), and both
// reductions to agree with the serial ImDotXRange / ImDotDiag read at
// the same points to 1e-12 relative. For float64, where the per-qubit
// terms do not depend on the point of the sweep they are read at, the
// mixer reduction must also agree with ImDotXAll of the input pair.
func checkTiledReverse[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	_, single := any([]T(nil)).([]float32)
	for _, sh := range tiledShapes(t) {
		if sh.n > 18 {
			continue
		}
		p := NewPool(sh.workers)
		beta, gamma := 0.61-0.03*float64(sh.n), 0.43+0.07*float64(sh.n)
		lam0, psi0 := randomPlanes[T](rng, sh.n), randomPlanes[T](rng, sh.n)
		for name, ph := range tiledPhases(rng, len(lam0.re), gamma) {
			for _, undo := range []bool{false, true} {
				if ph.Diag == nil && undo {
					continue
				}
				label := fmt.Sprintf("n=%d workers=%d %s undo=%v", sh.n, sh.workers, name, undo)
				lam, psi := lam0.clone(), psi0.clone()
				mixer, phase := ReverseUniformRXPlanes(p, lam.re, lam.im, psi.re, psi.im, beta, ph, undo)

				wl, wp := lam0.clone(), psi0.clone()
				var wantMixer, wantPhase float64
				for q := 0; q < sh.n; q++ {
					wantMixer += ImDotXRange(wl.vec(), wp.vec(), q, q+1)
					applyRXPlanes(p, wl.re, wl.im, q, -beta)
					applyRXPlanes(p, wp.re, wp.im, q, -beta)
				}
				if ph.Diag != nil {
					wantPhase = ImDotDiag(wl.vec(), wp.vec(), ph.Diag)
				}
				if undo {
					back := Phase{Diag: ph.Diag, Gamma: -gamma}
					phaseRangePlanes(wl.re, wl.im, back, 0, len(wl.re))
					phaseRangePlanes(wp.re, wp.im, back, 0, len(wp.re))
				}
				if i := bitDiff(lam, wl); i >= 0 {
					t.Fatalf("%s: λ differs from the per-qubit reference at %d", label, i)
				}
				if i := bitDiff(psi, wp); i >= 0 {
					t.Fatalf("%s: ψ differs from the per-qubit reference at %d", label, i)
				}
				relClose(t, label+" mixer", mixer, wantMixer)
				relClose(t, label+" phase", phase, wantPhase)
				if !single {
					relClose(t, label+" mixer vs ImDotXAll", mixer, ImDotXAll(lam0.vec(), psi0.vec()))
				}
			}
		}
	}
}

// relClose requires |got − want| ≤ 1e-12·(|want| + 1); the states are
// normalized, so 1 bounds each per-qubit term.
func relClose(t *testing.T, label string, got, want float64) {
	t.Helper()
	if d := math.Abs(got - want); d > 1e-12*(math.Abs(want)+1) {
		t.Fatalf("%s: reduction %v, want %v (off by %g)", label, got, want, d)
	}
}

func TestTiledReverseMatchesPerQubit(t *testing.T)      { checkTiledReverse[float64](t) }
func TestTiledReverseSoA32MatchesPerQubit(t *testing.T) { checkTiledReverse[float32](t) }

// TestTiledKernelsConcurrent runs two states through the tiled forward
// layer and reverse step on one shared pool at once; each must end
// bit-identical to the same work run alone. Run with -race.
func TestTiledKernelsConcurrent(t *testing.T) {
	const n = 14
	rng := rand.New(rand.NewSource(97))
	p := NewPool(3)
	ph := tiledPhases(rng, 1<<n, 0.7)["table"]
	type job struct {
		lam, psi     *SoA
		mixer, phase float64
	}
	run := func(j *job, beta float64) {
		j.psi.ApplyPhaseThenUniformRX(p, ph, beta)
		j.lam.Copy(j.psi)
		j.mixer, j.phase = j.lam.ReverseUniformRX(p, j.psi, beta, ph, true)
	}
	fresh := func(seed int64) *job {
		r := rand.New(rand.NewSource(seed))
		return &job{lam: NewSoA(n), psi: SoAFromVec(randState(r, n))}
	}
	alone := []*job{fresh(1), fresh(2)}
	for k, j := range alone {
		run(j, 0.3+0.2*float64(k))
	}
	shared := []*job{fresh(1), fresh(2)}
	var wg sync.WaitGroup
	for k, j := range shared {
		wg.Add(1)
		go func(k int, j *job) {
			defer wg.Done()
			run(j, 0.3+0.2*float64(k))
		}(k, j)
	}
	wg.Wait()
	for k := range shared {
		a, b := alone[k], shared[k]
		if MaxAbsDiff(a.psi.ToVec(), b.psi.ToVec()) != 0 || MaxAbsDiff(a.lam.ToVec(), b.lam.ToVec()) != 0 {
			t.Errorf("state %d: concurrent tiled kernels changed the states", k)
		}
		if a.mixer != b.mixer || a.phase != b.phase {
			t.Errorf("state %d: concurrent reductions (%v, %v), alone (%v, %v)", k, b.mixer, b.phase, a.mixer, a.phase)
		}
	}
}

// TestTileLowQubits pins the pass-1 rule: the whole state up to n = 12,
// else an even count ≤ 12 leaving a block per worker, floored at 4.
func TestTileLowQubits(t *testing.T) {
	for _, c := range []struct{ n, workers, want int }{
		{1, 4, 1}, {11, 4, 11}, {12, 64, 12},
		{13, 1, 12}, {13, 2, 12}, {13, 3, 10}, {18, 2, 12},
		{13, 512, 4}, {14, 1024, 4}, {22, 2, 12},
	} {
		if got := tileLowQubits(c.n, c.workers); got != c.want {
			t.Errorf("tileLowQubits(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// BenchmarkTiledMixer times the tiled layer against the per-qubit
// ApplyRX sweep and the tiled reverse step against per-qubit reverse
// passes (one Reduce over the same loop per qubit, as the split layouts
// ran them before the tiled kernel) plus a ReversePhase pass, on SoA at
// n = 18 with a level-table phase.
func BenchmarkTiledMixer(b *testing.B) {
	const n = 18
	rng := rand.New(rand.NewSource(101))
	p := NewPool(0)
	ph := tiledPhases(rng, 1<<n, 0.7)["table"]
	psi, lam := NewSoAUniform(n), NewSoAUniform(n)
	b.Run("forward/per-qubit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psi.ApplyPhase(p, ph)
			for q := 0; q < n; q++ {
				psi.ApplyRX(p, q, 0.3)
			}
		}
	})
	b.Run("forward/tiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psi.ApplyPhaseThenUniformRX(p, ph, 0.3)
		}
	})
	b.Run("reverse/per-qubit", func(b *testing.B) {
		sn, cs := math.Sincos(-0.3)
		for i := 0; i < b.N; i++ {
			for q := 0; q < n; q++ {
				p.Reduce(1<<(n-1), func(lo, hi int) float64 {
					return reverseRXRangePlanes(lam.Re, lam.Im, psi.Re, psi.Im, q, cs, sn, lo, hi)
				})
			}
			lam.ReversePhase(p, psi, ph, true)
		}
	})
	b.Run("reverse/tiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lam.ReverseUniformRX(p, psi, 0.3, ph, true)
		}
	})
}

// checkRXRange runs the qubit-range forward and reverse kernels over
// ranges that take the tiled passes (lo ≥ tileRunBits) and the untiled
// ones, and requires their states to match one full pass per pair (per
// qubit in reverse) bit for bit; the reverse reduction must agree with
// ImDotXRange of the input pair.
func checkRXRange[T Float](t *testing.T, tol float64) {
	rng := rand.New(rand.NewSource(57))
	const beta = 0.61
	for _, n := range []int{3, 6, 9, 14} {
		for _, r := range [][2]int{{0, n}, {n / 2, n}, {1, n - 1}, {4, n}, {n - 1, n}} {
			lo, hi := r[0], r[1]
			if lo > hi || hi > n {
				continue
			}
			label := fmt.Sprintf("n=%d [%d,%d)", n, lo, hi)
			in := randomPlanes[T](rng, n)
			got, want := in.clone(), in.clone()
			UniformRXRangePlanes(NewPool(2), got.re, got.im, lo, hi, beta)
			k := newRXCoeffs[T](beta)
			q := lo
			for ; q+1 < hi; q += 2 {
				rxPairRange(want.re, want.im, q, k, 0, len(want.re)/4)
			}
			if q < hi {
				rxRange(want.re, want.im, q, k.c, k.s, 0, len(want.re)/2)
			}
			if i := bitDiff(got, want); i >= 0 {
				t.Errorf("%s forward: amplitude %d differs from the per-pair passes", label, i)
			}

			lam, psi := randomPlanes[T](rng, n), randomPlanes[T](rng, n)
			wl, wp := lam.clone(), psi.clone()
			wantMixer := ImDotXRange(lam.vec(), psi.vec(), lo, hi)
			mixer := ReverseRXRangePlanes(NewPool(2), lam.re, lam.im, psi.re, psi.im, lo, hi, beta)
			sn64, cs64 := math.Sincos(-beta)
			for q := lo; q < hi; q++ {
				reverseRXRangePlanes(wl.re, wl.im, wp.re, wp.im, q, T(cs64), T(sn64), 0, len(wl.re)/2)
			}
			if bitDiff(lam, wl) >= 0 || bitDiff(psi, wp) >= 0 {
				t.Errorf("%s reverse: states differ from the per-qubit passes", label)
			}
			if d := math.Abs(mixer - wantMixer); d > tol*(math.Abs(wantMixer)+1) {
				t.Errorf("%s reverse: reduction %v, want %v", label, mixer, wantMixer)
			}
		}
	}
}

func TestRXRangePlanes(t *testing.T) {
	checkRXRange[float64](t, 1e-12)
	checkRXRange[float32](t, 1e-5)
}

// checkCodesOnlyPhase requires every split-layout kernel that reads a
// cost source to give bit-identical states and reductions for a
// codes-only source (Diag nil, levels Min + Scale·code) and for the
// Diag source of the same grid: the forward layer, the tiled reverse
// step with its phase in pass 1 (n = 5) and in the last later pass
// (n = 14), the reverse phase, the expectation and MulDiag.
func checkCodesOnlyPhase[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	const gamma, beta = 0.43, -0.29
	for _, n := range []int{5, 14} {
		grid, codes, tab := randomLevels(rng, 1<<n, gamma)
		withDiag := Phase{Diag: grid, Gamma: gamma, Codes: codes, Tab: tab}
		codesOnly := Phase{Gamma: gamma, Codes: codes, Tab: tab, Min: -3, Scale: 0.5}
		p := NewPool(1)
		in := randomPlanes[T](rng, n)
		a, b := in.clone(), in.clone()
		UniformRXPlanes(p, a.re, a.im, withDiag, beta)
		UniformRXPlanes(p, b.re, b.im, codesOnly, beta)
		if i := bitDiff(a, b); i >= 0 {
			t.Errorf("n=%d layer: amplitude %d differs", n, i)
		}
		if ea, eb := ExpectationPlanes(p, a.re, a.im, withDiag), ExpectationPlanes(p, b.re, b.im, codesOnly); ea != eb {
			t.Errorf("n=%d expectation %v vs %v", n, ea, eb)
		}
		lam := randomPlanes[T](rng, n)
		la, lb := lam.clone(), lam.clone()
		for _, undo := range []bool{false, true} {
			ma, pa := ReverseUniformRXPlanes(p, la.re, la.im, a.re, a.im, beta, withDiag, undo)
			mb, pb := ReverseUniformRXPlanes(p, lb.re, lb.im, b.re, b.im, beta, codesOnly, undo)
			if ma != mb || pa != pb || bitDiff(la, lb) >= 0 || bitDiff(a, b) >= 0 {
				t.Errorf("n=%d undo=%v reverse step differs", n, undo)
			}
			if ra, rb := ReversePhasePlanes(p, la.re, la.im, a.re, a.im, withDiag, undo), ReversePhasePlanes(p, lb.re, lb.im, b.re, b.im, codesOnly, undo); ra != rb || bitDiff(la, lb) >= 0 {
				t.Errorf("n=%d undo=%v reverse phase differs", n, undo)
			}
		}
		MulDiagPlanes(p, a.re, a.im, withDiag)
		MulDiagPlanes(p, b.re, b.im, codesOnly)
		if i := bitDiff(a, b); i >= 0 {
			t.Errorf("n=%d MulDiag: amplitude %d differs", n, i)
		}
	}
}

func TestCodesOnlyPhase(t *testing.T) {
	checkCodesOnlyPhase[float64](t)
	checkCodesOnlyPhase[float32](t)
}
