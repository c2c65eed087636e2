package statevec

import (
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
// against the explicit inner product: the standalone serial reduction,
// and ReversePhase on all four representations, with and without the
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

		if got := ImDotDiag(lam, psi, diag); math.Abs(got-want) > 1e-12 {
			t.Errorf("serial ImDotDiag = %v, want %v", got, want)
		}
		split := []Phase{ph}
		if ph.Codes != nil {
			split = append(split, Phase{Gamma: gamma, Codes: codes, Tab: tab, Min: -3, Scale: 0.5})
		}
		for _, undo := range []bool{false, true} {
			got := map[string]float64{}
			l, ps := lam.Clone(), psi.Clone()
			got["serial"] = ReversePhase(l, ps, ph, undo)
			l, ps = lam.Clone(), psi.Clone()
			got["pool"] = gradPool().ReversePhase(l, ps, ph, undo)
			for name, g := range got {
				if math.Abs(g-want) > 1e-12 {
					t.Errorf("%s ReversePhase(undo=%v, table=%v) = %v, want %v", name, undo, ph.Codes != nil, g, want)
				}
			}
			for _, sph := range split {
				sl, sp := SoAFromVec(lam), SoAFromVec(psi)
				if g := sl.ReversePhase(gradPool(), sp, sph, undo); math.Abs(g-want) > 1e-12 {
					t.Errorf("SoA ReversePhase(undo=%v, codes-only=%v) = %v, want %v", undo, sph.Diag == nil, g, want)
				}
				sl32, sp32 := SoA32FromVec(lam), SoA32FromVec(psi)
				if g := sl32.ReversePhase(gradPool(), sp32, sph, undo); math.Abs(g-want) > 1e-5 {
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

	got := v.Clone()
	gradPool().MulDiag(got, diag)
	if d := MaxAbsDiff(want, got); d > 0 {
		t.Errorf("pool MulDiag differs by %v", d)
	}
	soa := SoAFromVec(v)
	soa.MulDiag(gradPool(), diag)
	if d := MaxAbsDiff(want, soa.ToVec()); d > 1e-15 {
		t.Errorf("SoA MulDiag differs by %v", d)
	}
	soa32 := SoA32FromVec(v)
	soa32.MulDiag(gradPool(), diag)
	if d := MaxAbsDiff(want, soa32.ToVec()); d > 1e-6 {
		t.Errorf("SoA32 MulDiag differs by %v", d)
	}
}

// TestImDotXAllAgainstReference checks the transverse-field mixer
// derivative Σ_q Im ⟨λ|X_q|ψ⟩: the fused serial reduction,
// the sum of the per-qubit ReverseRX reductions on the complex128
// representations, and the mixer reduction of the split layouts' tiled
// ReverseUniformRX (each qubit's term is invariant under the RX undos
// of the other qubits, so the running sweep reads the same value).
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
	if got := ImDotXAll(lam, psi); math.Abs(got-want) > 1e-12 {
		t.Errorf("serial ImDotXAll = %v, want %v", got, want)
	}
	sl32, sp32 := SoA32FromVec(lam), SoA32FromVec(psi)
	var got [4]float64
	l, ps := lam.Clone(), psi.Clone()
	lp, pp := lam.Clone(), psi.Clone()
	for q := 0; q < n; q++ {
		got[0] += ReverseRX(l, ps, q, beta)
		got[1] += gradPool().ReverseRX(lp, pp, q, beta)
	}
	sl, sp := SoAFromVec(lam), SoAFromVec(psi)
	got[2], _ = sl.ReverseUniformRX(gradPool(), sp, beta, Phase{}, false)
	got[3], _ = sl32.ReverseUniformRX(gradPool(), sp32, beta, Phase{}, false)
	for k, name := range []string{"serial", "pool", "soa", "soa32"} {
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
// all four representations.
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
			if got := gradPool().ReverseXY(lam.Clone(), psi.Clone(), i, j, 0.4); math.Abs(got-want) > 1e-12 {
				t.Errorf("pool ReverseXY (%d,%d): got %v, want %v", i, j, got, want)
			}
			sl, sp := SoAFromVec(lam), SoAFromVec(psi)
			if got := sl.ReverseXY(gradPool(), sp, i, j, 0.4); math.Abs(got-want) > 1e-12 {
				t.Errorf("SoA ReverseXY (%d,%d): got %v, want %v", i, j, got, want)
			}
			sl32, sp32 := SoA32FromVec(lam), SoA32FromVec(psi)
			if got := sl32.ReverseXY(gradPool(), sp32, i, j, 0.4); math.Abs(got-want) > 1e-5 {
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
		// complex128, serial and pool: forward then reverse.
		for _, pool := range []*Pool{nil, gradPool()} {
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
			if pool == nil {
				ReverseXY(l, ps, 1, 4, beta)
				for q := 0; q < n; q++ {
					ReverseRX(l, ps, q, beta)
				}
			} else {
				pool.ReverseXY(l, ps, 1, 4, beta)
				for q := 0; q < n; q++ {
					pool.ReverseRX(l, ps, q, beta)
				}
			}
			if d := MaxAbsDiff(l, ref[0]) + MaxAbsDiff(ps, ref[1]); d != 0 {
				t.Errorf("pool=%v: reverse mixer differs from the forward kernels at −β by %g", pool != nil, d)
			}
			for _, v := range ref {
				ApplyPhase(v, undoPh)
			}
			if pool == nil {
				ReversePhase(l, ps, ph, true)
			} else {
				pool.ReversePhase(l, ps, ph, true)
			}
			if d := MaxAbsDiff(l, ref[0]) + MaxAbsDiff(ps, ref[1]); d != 0 {
				t.Errorf("pool=%v table=%v: reverse phase differs from the forward phase at −γ by %g", pool != nil, ph.Codes != nil, d)
			}
			if d := MaxAbsDiff(l, lam0) + MaxAbsDiff(ps, psi0); d > 1e-12 {
				t.Errorf("pool=%v table=%v: reverse steps leave the states off by %g", pool != nil, ph.Codes != nil, d)
			}
		}
		// The split layouts: the tiled ReverseUniformRX undoes the tiled
		// F = 2 forward mixer and the phase in one call.
		p := gradPool()
		sl, sp := SoAFromVec(lam0), SoAFromVec(psi0)
		for _, v := range []*SoA{sl, sp} {
			v.ApplyPhase(p, ph)
			v.ApplyUniformRX(p, beta)
			v.ApplyXY(p, 1, 4, beta)
		}
		sl.ReverseXY(p, sp, 1, 4, beta)
		sl.ReverseUniformRX(p, sp, beta, ph, true)
		if d := MaxAbsDiff(sl.ToVec(), lam0) + MaxAbsDiff(sp.ToVec(), psi0); d > 1e-12 {
			t.Errorf("SoA table=%v: reverse steps leave the states off by %g", ph.Codes != nil, d)
		}
		sl32, sp32 := SoA32FromVec(lam0), SoA32FromVec(psi0)
		for _, v := range []*SoA32{sl32, sp32} {
			v.ApplyPhase(p, ph)
			v.ApplyUniformRX(p, beta)
			v.ApplyXY(p, 1, 4, beta)
		}
		sl32.ReverseXY(p, sp32, 1, 4, beta)
		sl32.ReverseUniformRX(p, sp32, beta, ph, true)
		if d := MaxAbsDiff(sl32.ToVec(), lam0) + MaxAbsDiff(sp32.ToVec(), psi0); d > 1e-5 {
			t.Errorf("SoA32 table=%v: reverse steps leave the states off by %g", ph.Codes != nil, d)
		}
	}
}

func TestSoACopy(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	v := randState(rng, 4)
	src := SoAFromVec(v)
	dst := NewSoA(4)
	dst.Copy(src)
	if d := MaxAbsDiff(v, dst.ToVec()); d != 0 {
		t.Errorf("SoA Copy differs by %v", d)
	}
	src32 := SoA32FromVec(v)
	dst32 := NewSoA32(4)
	dst32.Copy(src32)
	if d := MaxAbsDiff(src32.ToVec(), dst32.ToVec()); d != 0 {
		t.Errorf("SoA32 Copy differs by %v", d)
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
		got := ImDotXRange(lam, psi, lo, hi)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("range [%d,%d): got %v, want %v", lo, hi, got, want)
		}
	}
	// The full range must agree with the fused all-qubit kernel.
	if a, b := ImDotXRange(lam, psi, 0, n), ImDotXAll(lam, psi); math.Abs(a-b) > 1e-12 {
		t.Errorf("ImDotXRange(0,n)=%v != ImDotXAll=%v", a, b)
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
			ImDotXRange(lam, psi, r[0], r[1])
		}()
	}
}

// TestSoA32ImDotXRange checks the single-precision range reduction,
// which the joint reverse step over a qubit range (ReverseRXRangePlanes)
// returns, against the complex128 ImDotXRange on the same (rounded)
// input states. The kernel accumulates in float64 but reads each later
// qubit's pairs after the earlier qubits' float32 rotations, so it
// agrees to float32 rounding; on float64 planes it agrees to 1e-12.
// Ranges starting at qubit 4 or above run the tiled passes, lower ones
// the untiled per-qubit passes.
func TestSoA32ImDotXRange(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 7
	lam64 := randState(rng, n)
	psi64 := randState(rng, n)
	lam32 := SoA32FromVec(lam64)
	psi32 := SoA32FromVec(psi64)
	lamR := lam32.ToVec()
	psiR := psi32.ToVec()
	p := NewPool(2)
	for _, r := range [][2]int{{0, n}, {0, 3}, {3, n}, {5, 5}, {2, 4}, {4, n}} {
		want := ImDotXRange(lamR, psiR, r[0], r[1])
		l, ps := SoAFromVec(lamR), SoAFromVec(psiR)
		if got := ReverseRXRangePlanes(p, l.Re, l.Im, ps.Re, ps.Im, r[0], r[1], 0.37); math.Abs(got-want) > 1e-12 {
			t.Errorf("range [%d,%d): SoA %v, complex128 %v", r[0], r[1], got, want)
		}
		l32, ps32 := SoA32FromVec(lamR), SoA32FromVec(psiR)
		if got := ReverseRXRangePlanes(p, l32.Re, l32.Im, ps32.Re, ps32.Im, r[0], r[1], 0.37); math.Abs(got-want) > 1e-5 {
			t.Errorf("range [%d,%d): SoA32 %v, complex128 %v", r[0], r[1], got, want)
		}
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
