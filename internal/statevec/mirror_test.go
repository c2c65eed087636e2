package statevec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// pivotShape is one case of the pivot-kernel tests: a full state of n
// qubits stored over the group the pivots generate (pivot j carries top
// qubit n−h+j), on a pool of the given size.
type pivotShape struct {
	name    string
	n       int
	pivots  []uint64
	workers int
}

// alternating returns the mask of the qubits below n with the parity
// of q.
func alternating(n, q int) uint64 {
	var m uint64
	for i := q % 2; i < n; i += 2 {
		m |= 1 << uint(i)
	}
	return m
}

// pivotShapes are the cases of the pivot tests: the complement (the
// half state) at the smallest sizes and at n = 14 and 15, where the
// pool splits the pairs; LABS's two alternating flips (the quarter
// state); and one pivot with a seeded random μ.
func pivotShapes() []pivotShape {
	rng := rand.New(rand.NewSource(131))
	var out []pivotShape
	add := func(name string, n int, pivots ...uint64) {
		for _, w := range []int{1, 2, 3} {
			out = append(out, pivotShape{name, n, pivots, w})
		}
	}
	for _, n := range []int{2, 3, 4, 5, 14, 15} {
		add("complement", n, 1<<uint(n)-1)
	}
	for _, n := range []int{4, 5, 14, 15} {
		add("alternating", n, alternating(n, n-2), alternating(n, n-1))
	}
	for _, n := range []int{3, 6, 14} {
		add("random mu", n, 1<<uint(n-1)|uint64(1+rng.Intn(1<<uint(n-1)-1)))
	}
	return out
}

// group returns the elements the pivots generate, indexed by their top
// h bits.
func (sh pivotShape) group() []uint64 {
	g := make([]uint64, 1<<uint(len(sh.pivots)))
	for t := range g {
		for j, p := range sh.pivots {
			if t>>uint(j)&1 == 1 {
				g[t] ^= p
			}
		}
	}
	return g
}

// stored returns the number of amplitudes the shape stores.
func (sh pivotShape) stored() int { return 1 << uint(sh.n-len(sh.pivots)) }

// mu returns pivot j's stored-index mask.
func (sh pivotShape) mu(j int) int { return int(sh.pivots[j]) & (sh.stored() - 1) }

// expandPlanes returns s with every amplitude outside the stored block
// rebuilt from the stored block: x takes the value at x ⊕ g, g the
// group element carrying x's top bits.
func expandPlanes[T Float](sh pivotShape, s planes[T]) planes[T] {
	c := s.clone()
	group, size := sh.group(), sh.stored()
	for x := size; x < len(c.re); x++ {
		r := uint64(x) ^ group[x/size]
		c.re[x], c.im[x] = c.re[r], c.im[r]
	}
	return c
}

// storedPart returns a copy of the stored block of a full state.
func storedPart[T Float](sh pivotShape, s planes[T]) planes[T] {
	return planes[T]{s.re[:sh.stored()], s.im[:sh.stored()]}.clone()
}

// checkMirrorRX requires ApplyMirrorRX with each pivot's μ on the
// stored state to end bit for bit equal to the stored block of ApplyRX
// on that pivot's qubit of the full symmetric state, which must stay
// symmetric.
func checkMirrorRX[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for _, sh := range pivotShapes() {
		p := NewPool(sh.workers)
		full := expandPlanes(sh, randomPlanes[T](rng, sh.n))
		stored := storedPart(sh, full)
		for j := range sh.pivots {
			q := sh.n - len(sh.pivots) + j
			beta := 0.37 + 0.05*float64(sh.n) - 0.11*float64(j)
			applyRXPlanes(p, full.re, full.im, q, beta)
			MirrorRXPlanes(p, stored.re, stored.im, sh.mu(j), beta)
			label := fmt.Sprintf("%s n=%d workers=%d qubit %d", sh.name, sh.n, sh.workers, q)
			if i := bitDiff(stored, storedPart(sh, full)); i >= 0 {
				t.Fatalf("%s: pivot RX differs from the full-state RX at %d", label, i)
			}
			if i := bitDiff(full, expandPlanes(sh, full)); i >= 0 {
				t.Fatalf("%s: full-state RX broke the symmetry at %d", label, i)
			}
		}
	}
}

func TestMirrorRXMatchesFullState(t *testing.T)      { checkMirrorRX[float64](t) }
func TestMirrorRXSoA32MatchesFullState(t *testing.T) { checkMirrorRX[float32](t) }

// checkReverseMirrorRX requires each pivot's reverse step on a stored
// pair to end bit for bit equal to the stored blocks of the full-state
// joint RX(−β) step on that pivot's qubit, and its reduction to be
// 2^−h of the full state's Im ⟨λ|X_q|ψ⟩ to 1e-12 relative.
func checkReverseMirrorRX[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for _, sh := range pivotShapes() {
		p := NewPool(sh.workers)
		lam := expandPlanes(sh, randomPlanes[T](rng, sh.n))
		psi := expandPlanes(sh, randomPlanes[T](rng, sh.n))
		hl, hp := storedPart(sh, lam), storedPart(sh, psi)
		for j := range sh.pivots {
			q := sh.n - len(sh.pivots) + j
			beta := 0.71 - 0.04*float64(sh.n) + 0.13*float64(j)
			got := ReverseMirrorRXPlanes(p, hl.re, hl.im, hp.re, hp.im, sh.mu(j), beta)
			want := ImDotXRange(lam.vec(), psi.vec(), q, q+1) / float64(len(sh.group()))
			applyRXPlanes(p, lam.re, lam.im, q, -beta)
			applyRXPlanes(p, psi.re, psi.im, q, -beta)
			label := fmt.Sprintf("%s n=%d workers=%d qubit %d", sh.name, sh.n, sh.workers, q)
			if i := bitDiff(hl, storedPart(sh, lam)); i >= 0 {
				t.Fatalf("%s: λ differs from the full-state reverse at %d", label, i)
			}
			if i := bitDiff(hp, storedPart(sh, psi)); i >= 0 {
				t.Fatalf("%s: ψ differs from the full-state reverse at %d", label, i)
			}
			relClose(t, label, got, want)
		}
	}
}

func TestReverseMirrorRXMatchesFullState(t *testing.T)      { checkReverseMirrorRX[float64](t) }
func TestReverseMirrorRXSoA32MatchesFullState(t *testing.T) { checkReverseMirrorRX[float32](t) }

// complementRX is the complement-only mirror kernel the pivot kernel
// generalizes, kept as the reference its μ = 1…1 case must match bit
// for bit: RX(β) on every pair (i, len−1−i), over p.Run(len/2).
func complementRX[T Float](p *Pool, re, im []T, beta float64) {
	sn64, cs64 := math.Sincos(beta)
	sn, cs := T(sn64), T(cs64)
	last := len(re) - 1
	p.Run(len(re)/2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m := last - i
			r1, i1 := re[i], im[i]
			r2, i2 := re[m], im[m]
			re[i] = cs*r1 + sn*i2
			im[i] = cs*i1 - sn*r2
			re[m] = cs*r2 + sn*i1
			im[m] = cs*i2 - sn*r1
		}
	})
}

// reverseComplementRX is the complement-only mirror reverse step, the
// reference of ReverseMirrorRXPlanes at μ = 1…1.
func reverseComplementRX[T Float](p *Pool, lr, li, pr, pi []T, beta float64) float64 {
	sn64, cs64 := math.Sincos(-beta)
	sn, cs := T(sn64), T(cs64)
	last := len(lr) - 1
	return p.Reduce(len(lr)/2, func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			m := last - i
			a1, b1, a2, b2 := lr[i], li[i], lr[m], li[m]
			c1, d1, c2, d2 := pr[i], pi[i], pr[m], pi[m]
			acc += float64(a1)*float64(d2) - float64(b1)*float64(c2) + float64(a2)*float64(d1) - float64(b2)*float64(c1)
			lr[i] = cs*a1 + sn*b2
			li[i] = cs*b1 - sn*a2
			lr[m] = cs*a2 + sn*b1
			li[m] = cs*b2 - sn*a1
			pr[i] = cs*c1 + sn*d2
			pi[i] = cs*d1 - sn*c2
			pr[m] = cs*c2 + sn*d1
			pi[m] = cs*d2 - sn*c1
		}
		return acc
	})
}

// checkComplementBitwise requires the pivot kernels at μ = len−1 to
// give the complement-only kernels' states and reductions bit for bit,
// at every pool size: the half state's pairing is unchanged.
func checkComplementBitwise[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for _, stored := range []int{1, 2, 3, 13, 14, 16} {
		for _, w := range []int{1, 2, 3} {
			p := NewPool(w)
			label := fmt.Sprintf("2^%d stored, workers=%d", stored, w)
			mu := 1<<uint(stored) - 1
			s := randomPlanes[T](rng, stored)
			ref := s.clone()
			MirrorRXPlanes(p, s.re, s.im, mu, 0.43)
			complementRX(p, ref.re, ref.im, 0.43)
			if i := bitDiff(s, ref); i >= 0 {
				t.Fatalf("%s: forward differs from the complement kernel at %d", label, i)
			}
			lam, psi := randomPlanes[T](rng, stored), randomPlanes[T](rng, stored)
			rl, rp := lam.clone(), psi.clone()
			got := ReverseMirrorRXPlanes(p, lam.re, lam.im, psi.re, psi.im, mu, 0.29)
			want := reverseComplementRX(p, rl.re, rl.im, rp.re, rp.im, 0.29)
			if math.Float64bits(got) != math.Float64bits(want) || bitDiff(lam, rl) >= 0 || bitDiff(psi, rp) >= 0 {
				t.Fatalf("%s: reverse differs from the complement kernel (reduction %v vs %v)", label, got, want)
			}
		}
	}
}

func TestMirrorRXComplementBitwise(t *testing.T)   { checkComplementBitwise[float64](t) }
func TestMirrorRXComplementBitwise32(t *testing.T) { checkComplementBitwise[float32](t) }

// TestMirrorRXPanics: a stored state needs at least one pair, a pair
// mask in (0, len), and the reverse step a λ and ψ of one length.
func TestMirrorRXPanics(t *testing.T) {
	p := NewPool(1)
	for name, f := range map[string]func(){
		"one amplitude":   func() { NewSoA(0).ApplyMirrorRX(p, 1, 0.3) },
		"zero mask":       func() { NewSoA(3).ApplyMirrorRX(p, 0, 0.3) },
		"mask too wide":   func() { NewSoA32(3).ApplyMirrorRX(p, 8, 0.3) },
		"reverse one":     func() { NewSoA32(0).ReverseMirrorRX(p, NewSoA32(0), 1, 0.3) },
		"reverse zero":    func() { NewSoA(3).ReverseMirrorRX(p, NewSoA(3), 0, 0.3) },
		"reverse lengths": func() { NewSoA(3).ReverseMirrorRX(p, NewSoA(4), 7, 0.3) },
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

// BenchmarkMirrorRX times the forward pivot pass and the joint pivot
// reverse step on the half state of n = 18 (2^17 amplitudes, μ = 1…1)
// and on LABS's quarter state (2^16 amplitudes, μ = 0101…01), next to
// the tiled layer and reverse step they follow and precede.
func BenchmarkMirrorRX(b *testing.B) {
	const n = 18
	rng := rand.New(rand.NewSource(113))
	p := NewPool(0)
	for _, c := range []struct {
		name string
		h    int
		mu   int
	}{
		{"half", 1, 1<<(n-1) - 1},
		{"quarter", 2, int(alternating(n-2, 0))},
	} {
		ph := tiledPhases(rng, 1<<(n-c.h), 0.7)["table"]
		psi, lam := NewSoAUniform(n-c.h), NewSoAUniform(n-c.h)
		b.Run(c.name+"/forward/mirror", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				psi.ApplyMirrorRX(p, c.mu, 0.3)
			}
		})
		b.Run(c.name+"/forward/tiled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				psi.ApplyPhaseThenUniformRX(p, ph, 0.3)
			}
		})
		b.Run(c.name+"/reverse/mirror", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lam.ReverseMirrorRX(p, psi, c.mu, 0.3)
			}
		})
		b.Run(c.name+"/reverse/tiled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lam.ReverseUniformRX(p, psi, 0.3, ph, true)
			}
		})
	}
}
