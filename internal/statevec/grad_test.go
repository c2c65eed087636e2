package statevec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randState returns a random normalized n-qubit state.
func randState(rng *rand.Rand, n int) Vec {
	v := New(n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	v.Normalize()
	return v
}

// imDot returns Im ⟨a|b⟩ directly.
func imDot(a, b Vec) float64 { return imag(Dot(a, b)) }

// imDotDiag returns Σ_x diag_x · Im(conj(lam_x)·psi_x) = Im ⟨λ|Ĉ|ψ⟩,
// the phase-operator derivative, summed with compensation (compSum) so
// that its own rounding stays far below the kernels' tolerances.
func imDotDiag(lam, psi Vec, diag []float64) float64 {
	if len(lam) != len(psi) || len(lam) != len(diag) {
		panic(fmt.Sprintf("statevec: imDotDiag length mismatch %d/%d/%d", len(lam), len(psi), len(diag)))
	}
	var acc compSum
	for i := range lam {
		acc.add(diag[i] * (real(lam[i])*imag(psi[i]) - imag(lam[i])*real(psi[i])))
	}
	return acc.sum()
}

// imDotXAll returns Σ_q Im ⟨λ|X_q|ψ⟩, the whole transverse-field mixer
// derivative, summed with compensation.
func imDotXAll(lam, psi Vec) float64 { return imDotXRange(lam, psi, 0, lam.NumQubits()) }

// imDotXRange returns Σ_{q∈[lo,hi)} Im ⟨λ|X_q|ψ⟩, the mixer derivative
// over a contiguous qubit range, summed with compensation.
func imDotXRange(lam, psi Vec, lo, hi int) float64 {
	if len(lam) != len(psi) {
		panic(fmt.Sprintf("statevec: imDotXRange length mismatch %d vs %d", len(lam), len(psi)))
	}
	checkRange("imDotXRange", lam.NumQubits(), lo, hi)
	var acc compSum
	for i := range lam {
		lr, li := real(lam[i]), imag(lam[i])
		for q := lo; q < hi; q++ {
			j := i ^ (1 << uint(q))
			acc.add(lr*imag(psi[j]) - li*real(psi[j]))
		}
	}
	return acc.sum()
}

// applyXRef returns X_q|v⟩ by explicit bit flip.
func applyXRef(v Vec, q int) Vec {
	out := New(v.NumQubits())
	for x := range v {
		out[x^(1<<uint(q))] = v[x]
	}
	return out
}

// applyXYRef returns H_e|v⟩ for H_e = (X_iX_j+Y_iY_j)/2, which swaps
// the 01/10 amplitude pairs and zeroes the rest.
func applyXYRef(v Vec, i, j int) Vec {
	out := New(v.NumQubits())
	mi, mj := uint64(1)<<uint(i), uint64(1)<<uint(j)
	for x := range v {
		bx := uint64(x)
		if bx&mi != 0 && bx&mj == 0 {
			out[bx^mi^mj] = v[x]
		} else if bx&mi == 0 && bx&mj != 0 {
			out[bx^mi^mj] = v[x]
		}
	}
	return out
}

// gradPool forces the parallel path regardless of state size
// (minParallel is zero for in-package composite literals).
func gradPool() *Pool { return &Pool{Workers: 4} }

// TestImDotDiagAgainstReference checks every Im ⟨λ|Ĉ|ψ⟩ reduction
// against the explicit inner product: the compensated serial reference,
// and ReversePhase on all three representations, with and without the
// phase undo and through every phase source (the split layouts also
// through the codes-only source of the same grid).
func TestImDotDiagAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 5
	lam, psi := randState(rng, n), randState(rng, n)
	gamma := 0.7
	random := make([]float64, 1<<n)
	for i := range random {
		random[i] = rng.NormFloat64()
	}
	grid, codes, tab := randomLevels(rng, 1<<n, gamma)
	for _, ph := range []Phase{{Diag: random, Gamma: gamma}, {Diag: grid, Gamma: gamma, Codes: codes, Tab: tab}} {
		diag := ph.Diag
		cpsi := psi.Clone()
		MulDiag(cpsi, diag)
		want := imDot(lam, cpsi)

		if got := imDotDiag(lam, psi, diag); math.Abs(got-want) > 1e-12 {
			t.Errorf("serial imDotDiag = %v, want %v", got, want)
		}
		split := []Phase{ph}
		if ph.Codes != nil {
			split = append(split, Phase{Gamma: gamma, Codes: codes, Tab: tab, Min: -3, Scale: 0.5})
		}
		for _, undo := range []bool{false, true} {
			if g := ReversePhase(lam.Clone(), psi.Clone(), ph, undo); math.Abs(g-want) > 1e-12 {
				t.Errorf("serial ReversePhase(undo=%v, table=%v) = %v, want %v", undo, ph.Codes != nil, g, want)
			}
			for _, sph := range split {
				sl, sp := splitOf[float64](lam), splitOf[float64](psi)
				if g := ReversePhasePlanes(gradPool(), sl.Re, sl.Im, sp.Re, sp.Im, sph, undo); math.Abs(g-want) > 1e-12 {
					t.Errorf("SoA ReversePhase(undo=%v, codes-only=%v) = %v, want %v", undo, sph.Diag == nil, g, want)
				}
				sl32, sp32 := splitOf[float32](lam), splitOf[float32](psi)
				if g := ReversePhasePlanes(gradPool(), sl32.Re, sl32.Im, sp32.Re, sp32.Im, sph, undo); math.Abs(g-want) > 1e-5 {
					t.Errorf("SoA32 ReversePhase(undo=%v, codes-only=%v) = %v, want %v", undo, sph.Diag == nil, g, want)
				}
			}
		}
	}
}

func TestMulDiagBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n = 5
	v := randState(rng, n)
	diag := make([]float64, 1<<n)
	for i := range diag {
		diag[i] = rng.NormFloat64()
	}
	want := v.Clone()
	MulDiag(want, diag)

	soa := splitOf[float64](v)
	MulDiagPlanes(gradPool(), soa.Re, soa.Im, Phase{Diag: diag})
	if d := MaxAbsDiff(want, toVec(soa.Re, soa.Im)); d > 1e-15 {
		t.Errorf("SoA MulDiag differs by %v", d)
	}
	soa32 := splitOf[float32](v)
	MulDiagPlanes(gradPool(), soa32.Re, soa32.Im, Phase{Diag: diag})
	if d := MaxAbsDiff(want, toVec(soa32.Re, soa32.Im)); d > 1e-6 {
		t.Errorf("SoA32 MulDiag differs by %v", d)
	}
}

// TestImDotXAllAgainstReference checks the transverse-field mixer
// derivative Σ_q Im ⟨λ|X_q|ψ⟩: the compensated serial reference,
// the sum of the per-qubit ReverseRX reductions on the complex128
// representation, and the mixer reduction of the split layouts'
// reverse step, which reads the whole sum off the Walsh diagonal
// (ReverseXPlanes).
func TestImDotXAllAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const n = 5
	const beta = 0.37
	lam, psi := randState(rng, n), randState(rng, n)
	// Reference: Σ_q Im ⟨λ|X_q|ψ⟩ by explicit bit-flip application.
	var want float64
	for q := 0; q < n; q++ {
		want += imDot(lam, applyXRef(psi, q))
	}
	if got := imDotXAll(lam, psi); math.Abs(got-want) > 1e-12 {
		t.Errorf("serial imDotXAll = %v, want %v", got, want)
	}
	sl32, sp32 := splitOf[float32](lam), splitOf[float32](psi)
	var got [3]float64
	l, ps := lam.Clone(), psi.Clone()
	for q := 0; q < n; q++ {
		got[0] += ReverseRX(l, ps, q, beta)
	}
	sl, sp := splitOf[float64](lam), splitOf[float64](psi)
	d := XDiag{N: n, Stored: n}
	got[1], _, _ = ReverseXPlanes(gradPool(), sl.Re, sl.Im, sp.Re, sp.Im, beta, d, Phase{}, false, nil)
	got[2], _, _ = ReverseXPlanes(gradPool(), sl32.Re, sl32.Im, sp32.Re, sp32.Im, beta, d, Phase{}, false, nil)
	for k, name := range []string{"serial", "soa", "soa32"} {
		tol := 1e-12
		if name == "soa32" {
			tol = 1e-5
		}
		if math.Abs(got[k]-want) > tol {
			t.Errorf("%s reverse mixer reduction = %v, want %v", name, got[k], want)
		}
	}
}

// TestImDotXYAgainstReference checks the per-edge xy derivative
// Im ⟨λ|H_e|ψ⟩ of the standalone serial reduction and of ReverseXY on
// all three representations.
func TestImDotXYAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const n = 5
	lam, psi := randState(rng, n), randState(rng, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			want := imDot(lam, applyXYRef(psi, i, j))
			if got := ImDotXY(lam, psi, i, j); math.Abs(got-want) > 1e-12 {
				t.Errorf("serial ImDotXY (%d,%d): got %v, want %v", i, j, got, want)
			}
			if got := ReverseXY(lam.Clone(), psi.Clone(), i, j, 0.4); math.Abs(got-want) > 1e-12 {
				t.Errorf("serial ReverseXY (%d,%d): got %v, want %v", i, j, got, want)
			}
			sl, sp := splitOf[float64](lam), splitOf[float64](psi)
			if got := ReverseXYPlanes(gradPool(), sl.Re, sl.Im, sp.Re, sp.Im, i, j, 0.4); math.Abs(got-want) > 1e-12 {
				t.Errorf("SoA ReverseXY (%d,%d): got %v, want %v", i, j, got, want)
			}
			sl32, sp32 := splitOf[float32](lam), splitOf[float32](psi)
			if got := ReverseXYPlanes(gradPool(), sl32.Re, sl32.Im, sp32.Re, sp32.Im, i, j, 0.4); math.Abs(got-want) > 1e-5 {
				t.Errorf("SoA32 ReverseXY (%d,%d): got %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestReverseKernelsUndoForward checks that each Reverse kernel is the
// exact inverse of its forward kernel on both states: a forward
// phase, RX sweep and xy edge, then the reverse steps in reverse
// order, must return λ and ψ to where they started. The double-
// precision reverse steps apply the forward arithmetic at the negated
// angle, so they must also match the forward kernels run at −β and
// −γ bit for bit.
func TestReverseKernelsUndoForward(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const n = 6
	const beta, gamma = 0.61, 0.43
	lam0, psi0 := randState(rng, n), randState(rng, n)
	grid, codes, tab := randomLevels(rng, 1<<n, gamma)
	for _, ph := range []Phase{{Diag: grid, Gamma: gamma}, {Diag: grid, Gamma: gamma, Codes: codes, Tab: tab}} {
		undoPh := Phase{Diag: grid, Gamma: -gamma}
		// complex128: forward then reverse.
		l, ps := lam0.Clone(), psi0.Clone()
		for _, v := range []Vec{l, ps} {
			ApplyPhase(v, ph)
			ApplyUniformRX(v, beta)
			ApplyXY(v, 1, 4, beta)
		}
		ref := []Vec{l.Clone(), ps.Clone()}
		for _, v := range ref {
			ApplyXY(v, 1, 4, -beta)
			ApplyUniformRX(v, -beta)
		}
		ReverseXY(l, ps, 1, 4, beta)
		for q := 0; q < n; q++ {
			ReverseRX(l, ps, q, beta)
		}
		if d := MaxAbsDiff(l, ref[0]) + MaxAbsDiff(ps, ref[1]); d != 0 {
			t.Errorf("reverse mixer differs from the forward kernels at −β by %g", d)
		}
		for _, v := range ref {
			ApplyPhase(v, undoPh)
		}
		ReversePhase(l, ps, ph, true)
		if d := MaxAbsDiff(l, ref[0]) + MaxAbsDiff(ps, ref[1]); d != 0 {
			t.Errorf("table=%v: reverse phase differs from the forward phase at −γ by %g", ph.Codes != nil, d)
		}
		if d := MaxAbsDiff(l, lam0) + MaxAbsDiff(ps, psi0); d > 1e-12 {
			t.Errorf("table=%v: reverse steps leave the states off by %g", ph.Codes != nil, d)
		}
		// The split layouts: ReverseXPlanes undoes the tiled F = 2
		// forward mixer and the phase in one call.
		p := gradPool()
		sl, sp := splitOf[float64](lam0), splitOf[float64](psi0)
		for _, v := range []*split[float64]{sl, sp} {
			ApplyPhasePlanes(p, v.Re, v.Im, ph)
			UniformRXPlanes(p, v.Re, v.Im, Phase{}, beta)
			ApplyXYPlanes(p, v.Re, v.Im, 1, 4, beta)
		}
		ReverseXYPlanes(p, sl.Re, sl.Im, sp.Re, sp.Im, 1, 4, beta)
		ReverseXPlanes(p, sl.Re, sl.Im, sp.Re, sp.Im, beta, XDiag{N: n, Stored: n}, ph, true, nil)
		if d := MaxAbsDiff(toVec(sl.Re, sl.Im), lam0) + MaxAbsDiff(toVec(sp.Re, sp.Im), psi0); d > 1e-12 {
			t.Errorf("SoA table=%v: reverse steps leave the states off by %g", ph.Codes != nil, d)
		}
		sl32, sp32 := splitOf[float32](lam0), splitOf[float32](psi0)
		for _, v := range []*split[float32]{sl32, sp32} {
			ApplyPhasePlanes(p, v.Re, v.Im, ph)
			UniformRXPlanes(p, v.Re, v.Im, Phase{}, beta)
			ApplyXYPlanes(p, v.Re, v.Im, 1, 4, beta)
		}
		ReverseXYPlanes(p, sl32.Re, sl32.Im, sp32.Re, sp32.Im, 1, 4, beta)
		ReverseXPlanes(p, sl32.Re, sl32.Im, sp32.Re, sp32.Im, beta, XDiag{N: n, Stored: n}, ph, true, nil)
		if d := MaxAbsDiff(toVec(sl32.Re, sl32.Im), lam0) + MaxAbsDiff(toVec(sp32.Re, sp32.Im), psi0); d > 1e-5 {
			t.Errorf("SoA32 table=%v: reverse steps leave the states off by %g", ph.Codes != nil, d)
		}
	}
}

func TestImDotXRangeAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 6
	lam, psi := randState(rng, n), randState(rng, n)
	for _, r := range [][2]int{{0, n}, {0, 3}, {3, 6}, {2, 5}, {4, 4}} {
		lo, hi := r[0], r[1]
		var want float64
		for q := lo; q < hi; q++ {
			want += imDot(lam, applyXRef(psi, q))
		}
		got := imDotXRange(lam, psi, lo, hi)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("range [%d,%d): got %v, want %v", lo, hi, got, want)
		}
	}
	// The full range must agree with the all-qubit reduction.
	if a, b := imDotXRange(lam, psi, 0, n), imDotXAll(lam, psi); math.Abs(a-b) > 1e-12 {
		t.Errorf("imDotXRange(0,n)=%v != imDotXAll=%v", a, b)
	}
}

func TestImDotXRangePanics(t *testing.T) {
	lam, psi := New(3), New(3)
	for _, r := range [][2]int{{-1, 2}, {0, 4}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("range [%d,%d) did not panic", r[0], r[1])
				}
			}()
			imDotXRange(lam, psi, r[0], r[1])
		}()
	}
}

// reverseSink keeps the benchmarked reductions live.
var reverseSink float64

// BenchmarkReversePhase times the joint phase reverse step on 2^14
// float64 planes, inline on one worker, for each cost source: float64
// entries with per-amplitude sincos ("sincos"), float64 entries with a
// phase table ("table") and uint16 codes alone ("codes"), each as the
// reduction alone and with the undo.
func BenchmarkReversePhase(b *testing.B) {
	const n = 14
	rng := rand.New(rand.NewSource(127))
	grid, codes, tab := randomLevels(rng, 1<<n, 0.7)
	sincos := tiledPhases(rng, 1<<n, 0.7)["sincos"]
	sources := []struct {
		name string
		ph   Phase
	}{
		{"sincos", sincos},
		{"table", Phase{Diag: grid, Gamma: 0.7, Codes: codes, Tab: tab}},
		{"codes", Phase{Gamma: 0.7, Codes: codes, Tab: tab, Min: -3, Scale: 0.5}},
	}
	p := NewPool(1)
	lam, psi := randomPlanes[float64](rng, n), randomPlanes[float64](rng, n)
	for _, src := range sources {
		for _, undo := range []bool{false, true} {
			name := src.name + "/reduce"
			if undo {
				name = src.name + "/undo"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					reverseSink = ReversePhasePlanes(p, lam.re, lam.im, psi.re, psi.im, src.ph, undo)
				}
			})
		}
	}
}
