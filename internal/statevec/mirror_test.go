package statevec

import (
	"fmt"
	"math/rand"
	"testing"
)

// symmetricPlanes draws a random n-qubit state with ψ(x) = ψ(x̄) for
// every x and the bitwise complement x̄.
func symmetricPlanes[T Float](rng *rand.Rand, n int) planes[T] {
	s := randomPlanes[T](rng, n)
	mask := len(s.re) - 1
	for x := len(s.re) / 2; x < len(s.re); x++ {
		s.re[x], s.im[x] = s.re[x^mask], s.im[x^mask]
	}
	return s
}

// lowerHalf returns the representatives x < 2^(n−1) of a full state.
func (s planes[T]) lowerHalf() planes[T] {
	h := len(s.re) / 2
	return planes[T]{s.re[:h], s.im[:h]}.clone()
}

// mirrorShapes are the (n, pool size) cases of the mirror tests, n
// counting the qubits of the full state: the smallest half states, and
// n = 14 and 15, where the pool splits the 2^(n−2) mirror pairs.
func mirrorShapes() []tiledShape {
	var out []tiledShape
	for _, n := range []int{2, 3, 4, 5, 14, 15} {
		for _, w := range []int{1, 2, 3} {
			out = append(out, tiledShape{n, w})
		}
	}
	return out
}

// checkMirrorRX requires ApplyMirrorRX on the half state to end bit
// for bit equal to the lower half of ApplyRX on qubit n−1 of the full
// symmetric state, which must stay symmetric.
func checkMirrorRX[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for _, sh := range mirrorShapes() {
		p := NewPool(sh.workers)
		beta := 0.37 + 0.05*float64(sh.n)
		full := symmetricPlanes[T](rng, sh.n)
		half := full.lowerHalf()
		applyRXPlanes(p, full.re, full.im, sh.n-1, beta)
		MirrorRXPlanes(p, half.re, half.im, beta)
		label := fmt.Sprintf("n=%d workers=%d", sh.n, sh.workers)
		if i := bitDiff(half, full.lowerHalf()); i >= 0 {
			t.Fatalf("%s: mirror RX differs from the full-state RX at %d", label, i)
		}
		if i := bitDiff(full, symmetricCopy(full)); i >= 0 {
			t.Fatalf("%s: full-state RX broke the flip symmetry at %d", label, i)
		}
	}
}

// symmetricCopy returns s with its upper half rebuilt from its lower
// half by the complement map.
func symmetricCopy[T Float](s planes[T]) planes[T] {
	c := s.clone()
	mask := len(c.re) - 1
	for x := len(c.re) / 2; x < len(c.re); x++ {
		c.re[x], c.im[x] = c.re[x^mask], c.im[x^mask]
	}
	return c
}

func TestMirrorRXMatchesFullState(t *testing.T)      { checkMirrorRX[float64](t) }
func TestMirrorRXSoA32MatchesFullState(t *testing.T) { checkMirrorRX[float32](t) }

// checkReverseMirrorRX requires the mirror reverse step on a half pair
// to end bit for bit equal to the lower halves of the full-state joint
// RX(−β) step on qubit n−1, and its reduction to be half of the full
// state's Im ⟨λ|X_(n−1)|ψ⟩ to 1e-12 relative.
func checkReverseMirrorRX[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for _, sh := range mirrorShapes() {
		p := NewPool(sh.workers)
		beta := 0.71 - 0.04*float64(sh.n)
		lam, psi := symmetricPlanes[T](rng, sh.n), symmetricPlanes[T](rng, sh.n)
		hl, hp := lam.lowerHalf(), psi.lowerHalf()
		got := ReverseMirrorRXPlanes(p, hl.re, hl.im, hp.re, hp.im, beta)

		want := ImDotXRange(lam.vec(), psi.vec(), sh.n-1, sh.n) / 2
		applyRXPlanes(p, lam.re, lam.im, sh.n-1, -beta)
		applyRXPlanes(p, psi.re, psi.im, sh.n-1, -beta)
		label := fmt.Sprintf("n=%d workers=%d", sh.n, sh.workers)
		if i := bitDiff(hl, lam.lowerHalf()); i >= 0 {
			t.Fatalf("%s: λ differs from the full-state reverse at %d", label, i)
		}
		if i := bitDiff(hp, psi.lowerHalf()); i >= 0 {
			t.Fatalf("%s: ψ differs from the full-state reverse at %d", label, i)
		}
		relClose(t, label, got, want)
	}
}

func TestReverseMirrorRXMatchesFullState(t *testing.T)      { checkReverseMirrorRX[float64](t) }
func TestReverseMirrorRXSoA32MatchesFullState(t *testing.T) { checkReverseMirrorRX[float32](t) }

// TestMirrorRXPanics: a half state needs at least one mirror pair, and
// the reverse step a λ and ψ of one length.
func TestMirrorRXPanics(t *testing.T) {
	p := NewPool(1)
	for name, f := range map[string]func(){
		"one amplitude":   func() { NewSoA(0).ApplyMirrorRX(p, 0.3) },
		"reverse one":     func() { NewSoA32(0).ReverseMirrorRX(p, NewSoA32(0), 0.3) },
		"reverse lengths": func() { NewSoA(3).ReverseMirrorRX(p, NewSoA(4), 0.3) },
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

// BenchmarkMirrorRX times the forward mirror pass and the joint mirror
// reverse step on the half state of n = 18 (2^17 amplitudes), next to
// the tiled layer and reverse step they follow and precede.
func BenchmarkMirrorRX(b *testing.B) {
	const n = 18
	rng := rand.New(rand.NewSource(113))
	p := NewPool(0)
	ph := tiledPhases(rng, 1<<(n-1), 0.7)["table"]
	psi, lam := NewSoAUniform(n-1), NewSoAUniform(n-1)
	b.Run("forward/mirror", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psi.ApplyMirrorRX(p, 0.3)
		}
	})
	b.Run("forward/tiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psi.ApplyPhaseThenUniformRX(p, ph, 0.3)
		}
	})
	b.Run("reverse/mirror", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lam.ReverseMirrorRX(p, psi, 0.3)
		}
	})
	b.Run("reverse/tiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lam.ReverseUniformRX(p, psi, 0.3, ph, true)
		}
	})
}
