package statevec

import (
	"math"
	"math/rand"
	"testing"
)

// TestFusedLayerMatchesUnfused is the property suite for the fused
// phase+mixer kernels: on every representation (serial Vec, Pool, SoA,
// SoA32), for odd and even n including the n < 2 degenerate cases, and
// for both phase sources (per-amplitude sincos of a random diagonal,
// and a level table over an integer grid), the combined kernel must
// reproduce its own mixer after a separate phase pass bit for bit (the
// fused kernels replay the exact unfused arithmetic per amplitude), and
// the double-precision results must match PhaseDiag followed by the
// per-qubit sweep to rtol 1e-12.
func TestFusedLayerMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{0, 1, 2, 3, 6, 7} {
		gamma := 0.83 - 0.07*float64(n)
		beta := 0.29 + 0.13*float64(n)
		v := randomState(rng, n)
		v.Normalize()
		diag := make([]float64, len(v))
		for i := range diag {
			diag[i] = rng.NormFloat64() * 3
		}
		grid, codes, tab := randomLevels(rng, len(v), gamma)
		for _, ph := range []Phase{
			{Diag: diag, Gamma: gamma},
			{Diag: grid, Gamma: gamma, Codes: codes, Tab: tab},
		} {
			checkFusedLayer(t, n, v, ph, beta)
		}
	}
}

// randomLevels returns a diagonal on the grid −3 + ½·k with random
// level codes, and the level table of e^{−iγ·diag} for it.
func randomLevels(rng *rand.Rand, size int, gamma float64) ([]float64, []uint16, []complex128) {
	const levels = 9
	diag := make([]float64, size)
	codes := make([]uint16, size)
	for i := range codes {
		codes[i] = uint16(rng.Intn(levels))
		diag[i] = -3 + 0.5*float64(codes[i])
	}
	tab := make([]complex128, levels)
	for k := range tab {
		s, c := math.Sincos(-gamma * (-3 + 0.5*float64(k)))
		tab[k] = complex(c, s)
	}
	return diag, codes, tab
}

func checkFusedLayer(t *testing.T, n int, v Vec, ph Phase, beta float64) {
	t.Helper()
	label := "sincos"
	if ph.Codes != nil {
		label = "table"
	}
	diag, gamma := ph.Diag, ph.Gamma
	// Reference: separate phase + per-qubit sweep through per-amplitude
	// sincos.
	want := v.Clone()
	PhaseDiag(want, diag, gamma)
	ApplyUniformRX(want, beta)

	check := func(name string, got Vec, ref Vec) {
		t.Helper()
		for i := range got {
			d := cmplxAbs(got[i] - ref[i])
			if d > 1e-12*(1+cmplxAbs(ref[i])) {
				t.Fatalf("n=%d %s %s deviates at %d by %g", n, label, name, i, d)
				return
			}
		}
	}
	exact := func(name string, got, ref Vec) {
		t.Helper()
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("n=%d %s %s: fused layer not bit-identical to the separate passes at %d", n, label, name, i)
			}
		}
	}

	phased := v.Clone()
	ApplyPhase(phased, ph)
	ref := v.Clone()
	PhaseDiag(ref, diag, gamma)
	check("serial phase", phased, ref)

	fused := v.Clone()
	ApplyPhaseThenUniformRX(fused, ph, beta)
	exact("serial", fused, want)

	for _, workers := range []int{1, 3} {
		p := NewPool(workers)
		p.minParallel = 1
		pf := v.Clone()
		p.ApplyPhaseThenUniformRX(pf, ph, beta)
		exact("pool", pf, want)

		// The split layouts run the tiled F = 2 layer: bit-identical to
		// its own separate phase pass, and close to the per-qubit sweep.
		soa := SoAFromVec(v)
		soa.ApplyPhaseThenUniformRX(p, ph, beta)
		soaSep := SoAFromVec(v)
		soaSep.PhaseDiag(p, diag, gamma)
		soaSep.ApplyUniformRX(p, beta)
		exact("soa", soa.ToVec(), soaSep.ToVec())
		check("soa", soa.ToVec(), want)

		soa32 := SoA32FromVec(v)
		soa32.ApplyPhaseThenUniformRX(p, ph, beta)
		soa32Sep := SoA32FromVec(v)
		soa32Sep.PhaseDiag(p, diag, gamma)
		soa32Sep.ApplyUniformRX(p, beta)
		exact("soa32", soa32.ToVec(), soa32Sep.ToVec())
	}
}

func cmplxAbs(z complex128) float64 {
	re, im := real(z), imag(z)
	if re < 0 {
		re = -re
	}
	if im < 0 {
		im = -im
	}
	if re < im {
		re, im = im, re
	}
	return re + im // 1-norm bound; fine for tolerance checks
}

// TestFusedLayerOddTail pins the odd-n tail of the split layouts'
// tiled F = 2 layer: at n = 5 the final qubit is swept alone after two
// pair passes, and the result must still be a unit-norm state — the
// symptom a broken tail shows first.
func TestFusedLayerOddTail(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	v := randomState(rng, 5)
	v.Normalize()
	diag := make([]float64, len(v))
	for i := range diag {
		diag[i] = float64(i%7) - 3
	}
	s := SoAFromVec(v)
	s.ApplyPhaseThenUniformRX(NewPool(1), Phase{Diag: diag, Gamma: 0.9}, 0.4)
	if d := s.ToVec().Norm(); d < 1-1e-12 || d > 1+1e-12 {
		t.Fatalf("odd-n tiled layer broke the norm: %v", d)
	}
}

func BenchmarkFusedLayer(b *testing.B) {
	const n = 18
	p := NewPool(0)
	diag := make([]float64, 1<<n)
	rng := rand.New(rand.NewSource(71))
	for i := range diag {
		diag[i] = rng.NormFloat64()
	}
	b.Run("separate", func(b *testing.B) {
		s := NewSoAUniform(n)
		b.SetBytes(int64(16 * len(diag)))
		for i := 0; i < b.N; i++ {
			s.PhaseDiag(p, diag, 0.7)
			s.ApplyUniformRX(p, 0.3)
		}
	})
	b.Run("fused", func(b *testing.B) {
		s := NewSoAUniform(n)
		b.SetBytes(int64(16 * len(diag)))
		for i := 0; i < b.N; i++ {
			s.ApplyPhaseThenUniformRX(p, Phase{Diag: diag, Gamma: 0.7}, 0.3)
		}
	})
}
