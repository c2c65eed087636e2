package statevec

import (
	"fmt"
	"math"
	"math/bits"
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

// walshReverseRef is the untiled reference composition of
// ReverseXPlanes on one set of planes: T1 one full pass per qubit,
// ascending; the diagonal one amplitude at a time; T2 one full pass per
// qubit, descending; then the phase over the whole state. Each
// amplitude sees the kernel's arithmetic in the kernel's order, so the
// states must match the kernel bit for bit at any tile shape and pool
// size; the reductions differ in summation order only.
func walshReverseRef[T Float](lam, psi planes[T], beta float64, d XDiag, ph Phase, undo bool) (mixer, phase float64) {
	n := numQubits(len(lam.re))
	all := [4][]T{lam.re, lam.im, psi.re, psi.im}
	stage := func(q int) {
		s := 1 << uint(q)
		for _, x := range all {
			for i := range x {
				if i&s == 0 {
					a, b := x[i], x[i+s]
					x[i], x[i+s] = a+b, a-b
				}
			}
		}
	}
	for q := 0; q < n; q++ {
		stage(q)
	}
	for i := range lam.re {
		w := d.Weight + bits.OnesCount(uint(i))
		for j, m := range d.Masks {
			w += int(uint64(bits.OnesCount(uint(i&m))&1) ^ d.Parity>>uint(j)&1)
		}
		sn, cs := math.Sincos(beta * float64(d.N-2*w))
		fc, fs := T(math.Ldexp(cs, -d.Stored)), T(math.Ldexp(sn, -d.Stored))
		ar, ai, cr, ci := lam.re[i], lam.im[i], psi.re[i], psi.im[i]
		mixer += float64(d.N-2*w) * (float64(ar)*float64(ci) - float64(ai)*float64(cr))
		lam.re[i], lam.im[i] = ar*fc-ai*fs, ar*fs+ai*fc
		psi.re[i], psi.im[i] = cr*fc-ci*fs, cr*fs+ci*fc
	}
	for q := n - 1; q >= 0; q-- {
		stage(q)
	}
	if ph.active() {
		phase = reversePhaseRangePlanes(lam.re, lam.im, psi.re, psi.im, ph, undo, 0, len(lam.re))
	}
	return math.Ldexp(mixer, -d.Stored), phase
}

// reversePerQubit is the per-qubit reference of one x-mixer reverse
// step on a stored state whose pivots pair i with i ⊕ μ_j: it returns
// Σ_q Im ⟨λ|X_q|ψ⟩ of the input pair, pivots included, then applies
// RX(−β) on every qubit and pivot to both states, reads Im ⟨λ|Ĉ|ψ⟩
// when ph has a diagonal and, with undo, undoes the phase. Both
// reductions sum term by term with compensation (compSum), so that
// their own rounding stays far below the kernels' tolerances.
func reversePerQubit[T Float](p *Pool, lam, psi planes[T], beta float64, mus []int, ph Phase, undo bool) (mixer, phase float64) {
	l, s := lam.vec(), psi.vec()
	var acc compSum
	for i := range l {
		for q := 0; q < numQubits(len(l)); q++ {
			acc.add(real(l[i])*imag(s[i^1<<uint(q)]) - imag(l[i])*real(s[i^1<<uint(q)]))
		}
		for _, mu := range mus {
			acc.add(real(l[i])*imag(s[i^mu]) - imag(l[i])*real(s[i^mu]))
		}
	}
	mixer = acc.sum()
	for _, x := range []planes[T]{lam, psi} {
		for q := 0; q < numQubits(len(x.re)); q++ {
			applyRXPlanes(p, x.re, x.im, q, -beta)
		}
		for _, mu := range mus {
			MirrorRXPlanes(p, x.re, x.im, mu, -beta)
		}
	}
	if ph.Diag != nil {
		var acc compSum
		for i := range lam.re {
			acc.add(ph.Diag[i] * (float64(lam.re[i])*float64(psi.im[i]) - float64(lam.im[i])*float64(psi.re[i])))
		}
		phase = acc.sum()
	}
	if undo {
		back := Phase{Diag: ph.Diag, Gamma: -ph.Gamma}
		phaseRangePlanes(lam.re, lam.im, back, 0, len(lam.re))
		phaseRangePlanes(psi.re, psi.im, back, 0, len(psi.re))
	}
	return mixer, phase
}

// compSum is a Neumaier compensated sum.
type compSum struct{ s, c float64 }

func (k *compSum) add(x float64) {
	t := k.s + x
	if math.Abs(k.s) >= math.Abs(x) {
		k.c += (k.s - t) + x
	} else {
		k.c += (x - t) + k.s
	}
	k.s = t
}

func (k compSum) sum() float64 { return k.s + k.c }

// reverseShapes returns the pool sizes a reverse-step case of n qubits
// runs at: 1, 2 and 3, and at n = 13 and 14 also the pools that shrink
// pass 1 to 4 qubits, so that the step takes a full group pass and an
// odd one (n = 13) or two even ones (n = 14).
func reverseShapes(n int) []int {
	switch n {
	case 13:
		return []int{1, 2, 3, 512}
	case 14:
		return []int{1, 2, 3, 1024}
	}
	return []int{1, 2, 3}
}

// checkTiledReverse runs the reverse step on full states of 1 to 20
// qubits (16 in short mode) at every pool size of reverseShapes, and
// requires λ and ψ to match the untiled reference composition bit for
// bit, with both reductions close to the reference's. It then requires
// the states within tol of per-qubit RX(−β) steps followed by the phase
// undo (reversePerQubit), and the reductions within rtol of the
// per-qubit reference's, of imDotXAll of the input pair and of
// imDotDiag of the undone pair. Above 14 qubits only the mixer alone and the table phase
// with its undo run.
func checkTiledReverse[T Float](t *testing.T, tol, rtol float64) {
	rng := rand.New(rand.NewSource(89))
	maxN := 20
	if testing.Short() {
		maxN = 16
	}
	for n := 1; n <= maxN; n++ {
		beta, gamma := 0.61-0.03*float64(n), 0.43+0.07*float64(n)
		lam0, psi0 := randomPlanes[T](rng, n), randomPlanes[T](rng, n)
		d := XDiag{N: n, Stored: n}
		phases := tiledPhases(rng, 1<<n, gamma)
		for _, name := range []string{"mixer", "sincos", "table"} {
			ph := phases[name]
			for _, undo := range []bool{false, true} {
				if ph.Diag == nil && undo || n > 14 && name != "mixer" && (name != "table" || !undo) {
					continue
				}
				label := fmt.Sprintf("n=%d %s undo=%v", n, name, undo)
				wl, wp := lam0.clone(), psi0.clone()
				wantMixer, wantPhase := walshReverseRef(wl, wp, beta, d, ph, undo)
				for _, workers := range reverseShapes(n) {
					lam, psi := lam0.clone(), psi0.clone()
					mixer, phase, err := ReverseXPlanes(NewPool(workers), lam.re, lam.im, psi.re, psi.im, beta, d, ph, undo, nil)
					if err != nil {
						t.Fatal(err)
					}
					if i := bitDiff(lam, wl); i >= 0 {
						t.Fatalf("%s workers=%d: λ differs from the reference composition at %d", label, workers, i)
					}
					if i := bitDiff(psi, wp); i >= 0 {
						t.Fatalf("%s workers=%d: ψ differs from the reference composition at %d", label, workers, i)
					}
					relClose(t, fmt.Sprintf("%s workers=%d mixer", label, workers), mixer, wantMixer, 1e-12)
					relClose(t, fmt.Sprintf("%s workers=%d phase", label, workers), phase, wantPhase, 1e-12)
				}
				pl, pp := lam0.clone(), psi0.clone()
				refMixer, refPhase := reversePerQubit(NewPool(1), pl, pp, beta, nil, ph, undo)
				if dl, dp := MaxAbsDiff(wl.vec(), pl.vec()), MaxAbsDiff(wp.vec(), pp.vec()); dl > tol || dp > tol {
					t.Fatalf("%s: states differ from the per-qubit reference by %g, %g", label, dl, dp)
				}
				relClose(t, label+" mixer vs the per-qubit reference", wantMixer, refMixer, rtol)
				relClose(t, label+" phase vs the per-qubit reference", wantPhase, refPhase, rtol)
				relClose(t, label+" mixer vs imDotXAll", wantMixer, imDotXAll(lam0.vec(), psi0.vec()), rtol)
				if ph.Diag != nil {
					relClose(t, label+" phase vs imDotDiag", wantPhase, imDotDiag(pl.vec(), pp.vec(), ph.Diag), rtol)
				}
			}
		}
	}
}

// relClose requires |got − want| ≤ tol·(|want| + 1); the states are
// normalized, so 1 bounds each per-qubit term.
func relClose(t *testing.T, label string, got, want, tol float64) {
	t.Helper()
	if d := math.Abs(got - want); d > tol*(math.Abs(want)+1) {
		t.Fatalf("%s: reduction %v, want %v (off by %g)", label, got, want, d)
	}
}

func TestTiledReverseMatchesPerQubit(t *testing.T)      { checkTiledReverse[float64](t, 1e-14, 1e-12) }
func TestTiledReverseSoA32MatchesPerQubit(t *testing.T) { checkTiledReverse[float32](t, 1e-5, 1e-5) }

// checkReverseXGroup runs the reverse step on the stored planes of a
// group state, with the pivots as parity masks, and on the full state
// expanded through the group, under a cost the group fixes: the stored
// block of the full state's λ and ψ must match the stored planes to
// tol, and the stored reductions must be 2^−h of the full state's, to
// rtol.
func checkReverseXGroup[T Float](t *testing.T, tol, rtol float64) {
	rng := rand.New(rand.NewSource(109))
	for _, sh := range pivotShapes() {
		p := NewPool(sh.workers)
		h, size := len(sh.pivots), sh.stored()
		beta, gamma := 0.71-0.04*float64(sh.n), 0.37+0.05*float64(sh.n)
		lam := expandPlanes(sh, randomPlanes[T](rng, sh.n))
		psi := expandPlanes(sh, randomPlanes[T](rng, sh.n))
		group := sh.group()
		diag := make([]float64, 1<<uint(sh.n))
		for x := range diag {
			if x < size {
				diag[x] = rng.NormFloat64() * 3
			} else {
				diag[x] = diag[uint64(x)^group[x/size]]
			}
		}
		masks := make([]int, h)
		for j := range masks {
			masks[j] = sh.mu(j)
		}
		hl, hp := storedPart(sh, lam), storedPart(sh, psi)
		mixer, phase, err := ReverseXPlanes(p, hl.re, hl.im, hp.re, hp.im, beta,
			XDiag{N: sh.n, Stored: sh.n - h, Masks: masks}, Phase{Diag: diag[:size], Gamma: gamma}, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		fullMixer, fullPhase, err := ReverseXPlanes(p, lam.re, lam.im, psi.re, psi.im, beta,
			XDiag{N: sh.n, Stored: sh.n}, Phase{Diag: diag, Gamma: gamma}, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s n=%d workers=%d", sh.name, sh.n, sh.workers)
		if dl, dp := MaxAbsDiff(hl.vec(), storedPart(sh, lam).vec()), MaxAbsDiff(hp.vec(), storedPart(sh, psi).vec()); dl > tol || dp > tol {
			t.Fatalf("%s: stored states differ from the full-state reverse by %g, %g", label, dl, dp)
		}
		weight := float64(len(group))
		relClose(t, label+" mixer", weight*mixer, fullMixer, rtol)
		relClose(t, label+" phase", weight*phase, fullPhase, rtol)
	}
}

func TestReverseXGroupMatchesFullState(t *testing.T)      { checkReverseXGroup[float64](t, 1e-13, 1e-12) }
func TestReverseXGroupSoA32MatchesFullState(t *testing.T) { checkReverseXGroup[float32](t, 1e-5, 1e-5) }

// shardDiag returns the reverse step's diagonal on shard a of 2^k in
// the layout a plain all-to-all leaves, where shard a holds stored
// index (r, a, w) at local index (r, w): the pivots' parity masks over
// (r, w), and the weight and parities the a bits add.
func shardDiag(n, stored, k, a int, mus []int) XDiag {
	local := stored - k
	low := local - k
	d := XDiag{N: n, Stored: stored, Weight: bits.OnesCount(uint(a))}
	for j, mu := range mus {
		d.Masks = append(d.Masks, mu>>uint(local)<<uint(low)|mu&(1<<uint(low)-1))
		d.Parity |= uint64(bits.OnesCount(uint(a&(mu>>uint(low))&(1<<uint(k)-1)))&1) << uint(j)
	}
	return d
}

// alltoallShards swaps subchunk a of shard r with subchunk r of shard
// a in every plane.
func alltoallShards[T Float](shards [][4][]T) {
	k := len(shards)
	sub := len(shards[0][0]) / k
	for r := 0; r < k; r++ {
		for a := r + 1; a < k; a++ {
			for pl := 0; pl < 4; pl++ {
				x, y := shards[r][pl][a*sub:(a+1)*sub], shards[a][pl][r*sub:(r+1)*sub]
				for i := range x {
					x[i], y[i] = y[i], x[i]
				}
			}
		}
	}
}

// checkReverseXShards runs the reverse step on the 2^k shards of a
// stored state at once, each on its own goroutine, with an all-to-all
// between them as swap. The gathered states must match the step on one
// set of planes to tol, and the shards' summed reductions its
// reductions to rtol; for float64 the mixer reduction must also match
// the per-qubit reference with the pivots' terms. The sizes take the tiled pass over
// the swapped-in qubits (n − h − 2k ≥ 4) and the untiled one, with and
// without pivots.
func checkReverseXShards[T Float](t *testing.T, tol, rtol float64) {
	rng := rand.New(rand.NewSource(139))
	_, single := any([]T(nil)).([]float32)
	for _, c := range []struct {
		stored, k int
		mus       []int
	}{
		{6, 1, nil}, {6, 3, []int{0b101011}}, {9, 2, []int{0b101010101, 0b010101010}},
		{14, 1, nil}, {14, 2, []int{int(alternating(14, 0)), int(alternating(14, 1))}}, {15, 3, []int{1<<15 - 1}},
	} {
		const beta, gamma = 0.53, -0.31
		n := c.stored + len(c.mus)
		label := fmt.Sprintf("2^%d stored, k=%d, %d pivots", c.stored, c.k, len(c.mus))
		lam0, psi0 := randomPlanes[T](rng, c.stored), randomPlanes[T](rng, c.stored)
		ph := tiledPhases(rng, 1<<uint(c.stored), gamma)["table"]
		wl, wp := lam0.clone(), psi0.clone()
		wantMixer, wantPhase, err := ReverseXPlanes(NewPool(2), wl.re, wl.im, wp.re, wp.im, beta, XDiag{N: n, Stored: c.stored, Masks: c.mus}, ph, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		ranks, size := 1<<uint(c.k), 1<<uint(c.stored-c.k)
		lam, psi := lam0.clone(), psi0.clone()
		shards := make([][4][]T, ranks)
		for r := range shards {
			lo, hi := r*size, (r+1)*size
			shards[r] = [4][]T{lam.re[lo:hi], lam.im[lo:hi], psi.re[lo:hi], psi.im[lo:hi]}
		}
		arrive, release := make(chan struct{}), make([]chan struct{}, ranks)
		for r := range release {
			release[r] = make(chan struct{})
		}
		go func() {
			for round := 0; round < 2; round++ {
				for r := 0; r < ranks; r++ {
					<-arrive
				}
				alltoallShards(shards)
				for _, ch := range release {
					ch <- struct{}{}
				}
			}
		}()
		mixers, phases := make([]float64, ranks), make([]float64, ranks)
		var wg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				s, lo, hi := shards[r], r*size, (r+1)*size
				swap := func() error {
					arrive <- struct{}{}
					<-release[r]
					return nil
				}
				window := Phase{Diag: ph.Diag[lo:hi], Gamma: gamma, Codes: ph.Codes[lo:hi], Tab: ph.Tab}
				mixers[r], phases[r], _ = ReverseXPlanes(NewPool(1), s[0], s[1], s[2], s[3], beta, shardDiag(n, c.stored, c.k, r, c.mus), window, true, swap)
			}(r)
		}
		wg.Wait()
		var mixer, phase float64
		for r := range mixers {
			mixer += mixers[r]
			phase += phases[r]
		}
		if dl, dp := MaxAbsDiff(lam.vec(), wl.vec()), MaxAbsDiff(psi.vec(), wp.vec()); dl > tol || dp > tol {
			t.Fatalf("%s: gathered shards differ from one set of planes by %g, %g", label, dl, dp)
		}
		relClose(t, label+" mixer", mixer, wantMixer, rtol)
		relClose(t, label+" phase", phase, wantPhase, rtol)
		if !single {
			ref, _ := reversePerQubit(NewPool(1), lam0.clone(), psi0.clone(), beta, c.mus, Phase{}, false)
			relClose(t, label+" mixer vs imDotXAll", mixer, ref, 1e-12)
		}
	}
}

func TestReverseXShardsMatchOnePlane(t *testing.T) {
	checkReverseXShards[float64](t, 1e-13, 1e-12)
	checkReverseXShards[float32](t, 1e-5, 1e-5)
}

// TestReverseXPanics: λ and ψ must have one length, and the planes must
// hold the 2^Stored amplitudes of at most n qubits, or 2^(Stored−k)
// with a swap.
func TestReverseXPanics(t *testing.T) {
	p := NewPool(1)
	for name, f := range map[string]func(){
		"lengths": func() {
			l, s := newSplit[float64](3), newSplit[float64](4)
			ReverseXPlanes(p, l.Re, l.Im, s.Re, s.Im, 0.3, XDiag{N: 4, Stored: 4}, Phase{}, false, nil)
		},
		"more than stored": func() {
			l, s := newSplit[float32](4), newSplit[float32](4)
			ReverseXPlanes(p, l.Re, l.Im, s.Re, s.Im, 0.3, XDiag{N: 4, Stored: 3}, Phase{}, false, nil)
		},
		"shard without swap": func() {
			l, s := newSplit[float64](3), newSplit[float64](3)
			ReverseXPlanes(p, l.Re, l.Im, s.Re, s.Im, 0.3, XDiag{N: 4, Stored: 4}, Phase{}, false, nil)
		},
		"stored above n": func() {
			l, s := newSplit[float64](3), newSplit[float64](3)
			ReverseXPlanes(p, l.Re, l.Im, s.Re, s.Im, 0.3, XDiag{N: 2, Stored: 3}, Phase{}, false, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestReverseXNoAllocs: the reverse step on an inline pool allocates
// nothing, in one block pass (n = 10) and with tile passes (n = 16).
func TestReverseXNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	p := NewPool(1)
	for _, n := range []int{10, 16} {
		lam, psi := randomPlanes[float64](rng, n), randomPlanes[float64](rng, n)
		ph := tiledPhases(rng, 1<<n, 0.4)["table"]
		d := XDiag{N: n + 2, Stored: n, Masks: []int{int(alternating(n, 0)), int(alternating(n, 1))}}
		allocs := testing.AllocsPerRun(5, func() {
			ReverseXPlanes(p, lam.re, lam.im, psi.re, psi.im, 0.3, d, ph, true, nil)
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocations per reverse step, want 0", n, allocs)
		}
	}
}

// TestTiledKernelsConcurrent runs two states through the tiled forward
// layer and reverse step on one shared pool at once; each must end
// bit-identical to the same work run alone. Run with -race.
func TestTiledKernelsConcurrent(t *testing.T) {
	const n = 14
	rng := rand.New(rand.NewSource(97))
	p := NewPool(3)
	ph := tiledPhases(rng, 1<<n, 0.7)["table"]
	type job struct {
		lam, psi     *split[float64]
		mixer, phase float64
	}
	run := func(j *job, beta float64) {
		UniformRXPlanes(p, j.psi.Re, j.psi.Im, ph, beta)
		copy(j.lam.Re, j.psi.Re)
		copy(j.lam.Im, j.psi.Im)
		j.mixer, j.phase, _ = ReverseXPlanes(p, j.lam.Re, j.lam.Im, j.psi.Re, j.psi.Im, beta, XDiag{N: n, Stored: n}, ph, true, nil)
	}
	fresh := func(seed int64) *job {
		r := rand.New(rand.NewSource(seed))
		return &job{lam: newSplit[float64](n), psi: splitOf[float64](randState(r, n))}
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
		if MaxAbsDiff(toVec(a.psi.Re, a.psi.Im), toVec(b.psi.Re, b.psi.Im)) != 0 || MaxAbsDiff(toVec(a.lam.Re, a.lam.Im), toVec(b.lam.Re, b.lam.Im)) != 0 {
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
// ApplyRX sweep, and the reverse step in the Walsh basis against
// per-qubit reverse passes (reverseRXPerQubit, one Reduce per qubit, as
// the split layouts ran them before the tiled kernels) plus a
// ReversePhase pass, on SoA at n = 18 with a level-table phase.
func BenchmarkTiledMixer(b *testing.B) {
	const n = 18
	rng := rand.New(rand.NewSource(101))
	p := NewPool(0)
	ph := tiledPhases(rng, 1<<n, 0.7)["table"]
	psi, lam := NewSoAUniform(n), NewSoAUniform(n)
	b.Run("forward/per-qubit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ApplyPhasePlanes(p, psi.Re, psi.Im, ph)
			for q := 0; q < n; q++ {
				applyRXPlanes(p, psi.Re, psi.Im, q, 0.3)
			}
		}
	})
	b.Run("forward/tiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			UniformRXPlanes(p, psi.Re, psi.Im, ph, 0.3)
		}
	})
	b.Run("reverse/per-qubit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for q := 0; q < n; q++ {
				reverseRXPerQubit(p, lam.Re, lam.Im, psi.Re, psi.Im, q, 0.3)
			}
			ReversePhasePlanes(p, lam.Re, lam.Im, psi.Re, psi.Im, ph, true)
		}
	})
	b.Run("reverse/walsh", func(b *testing.B) {
		d := XDiag{N: n, Stored: n}
		for i := 0; i < b.N; i++ {
			ReverseXPlanes(p, lam.Re, lam.Im, psi.Re, psi.Im, 0.3, d, ph, true, nil)
		}
	})
}

// reverseRXPerQubit is the joint RX(−β) reverse step of qubit q on
// split planes in one pass over its pairs: it returns Im ⟨λ|X_q|ψ⟩ and
// rotates λ and ψ.
func reverseRXPerQubit[T Float](p *Pool, lr, li, pr, pi []T, q int, beta float64) float64 {
	sn64, cs64 := math.Sincos(-beta)
	sn, cs := T(sn64), T(cs64)
	stride := 1 << uint(q)
	return p.Reduce(len(lr)/2, func(lo, hi int) float64 {
		var acc float64
		for t := lo; t < hi; t++ {
			l1 := (t>>uint(q))<<uint(q+1) | t&(stride-1)
			l2 := l1 + stride
			a1, b1, a2, b2 := lr[l1], li[l1], lr[l2], li[l2]
			c1, d1, c2, d2 := pr[l1], pi[l1], pr[l2], pi[l2]
			acc += float64(a1)*float64(d2) - float64(b1)*float64(c2) + float64(a2)*float64(d1) - float64(b2)*float64(c1)
			lr[l1], li[l1] = cs*a1+sn*b2, cs*b1-sn*a2
			lr[l2], li[l2] = cs*a2+sn*b1, cs*b2-sn*a1
			pr[l1], pi[l1] = cs*c1+sn*d2, cs*d1-sn*c2
			pr[l2], pi[l2] = cs*c2+sn*d1, cs*d2-sn*c1
		}
		return acc
	})
}

// checkRXRange runs the qubit-range forward kernel over ranges that
// take the tiled passes (lo ≥ tileRunBits) and the untiled ones, and
// requires its states to match one full pass per pair bit for bit.
func checkRXRange[T Float](t *testing.T) {
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
		}
	}
}

func TestRXRangePlanes(t *testing.T) {
	checkRXRange[float64](t)
	checkRXRange[float32](t)
}

// checkCodesOnlyPhase requires every split-layout kernel that reads a
// cost source to give bit-identical states and reductions for a
// codes-only source (Diag nil, levels Min + Scale·code) and for the
// Diag source of the same grid: the forward layer, the reverse step
// with its phase in its one block pass (n = 5) and after tile passes
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
		d := XDiag{N: n, Stored: n}
		for _, undo := range []bool{false, true} {
			ma, pa, _ := ReverseXPlanes(p, la.re, la.im, a.re, a.im, beta, d, withDiag, undo, nil)
			mb, pb, _ := ReverseXPlanes(p, lb.re, lb.im, b.re, b.im, beta, d, codesOnly, undo, nil)
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
