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
// against the explicit inner product: the standalone serial and SoA32
// reductions the distributed engine calls, and ReversePhase on all
// four representations, with and without the phase undo and through
// both phase sources.
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
		sl32, sp32 := SoA32FromVec(lam), SoA32FromVec(psi)
		if got := sl32.ImDotDiag(gradPool(), sp32, diag); math.Abs(got-want) > 1e-5 {
			t.Errorf("SoA32 ImDotDiag = %v, want %v", got, want)
		}
		for _, undo := range []bool{false, true} {
			got := map[string]float64{}
			l, ps := lam.Clone(), psi.Clone()
			got["serial"] = ReversePhase(l, ps, ph, undo)
			l, ps = lam.Clone(), psi.Clone()
			got["pool"] = gradPool().ReversePhase(l, ps, ph, undo)
			sl, sp := SoAFromVec(lam), SoAFromVec(psi)
			got["soa"] = sl.ReversePhase(gradPool(), sp, ph, undo)
			for name, g := range got {
				if math.Abs(g-want) > 1e-12 {
					t.Errorf("%s ReversePhase(undo=%v, table=%v) = %v, want %v", name, undo, ph.Codes != nil, g, want)
				}
			}
			sl32, sp32 := SoA32FromVec(lam), SoA32FromVec(psi)
			if g := sl32.ReversePhase(gradPool(), sp32, ph, undo); math.Abs(g-want) > 1e-5 {
				t.Errorf("SoA32 ReversePhase(undo=%v) = %v, want %v", undo, g, want)
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
// derivative Σ_q Im ⟨λ|X_q|ψ⟩: the fused serial and SoA32 reductions,
// and the sum of the per-qubit ReverseRX reductions on all four
// representations (each qubit's term is invariant under the RX undos
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
	if got := sl32.ImDotXAll(gradPool(), sp32); math.Abs(got-want) > 1e-5 {
		t.Errorf("SoA32 ImDotXAll = %v, want %v", got, want)
	}
	var got [4]float64
	l, ps := lam.Clone(), psi.Clone()
	lp, pp := lam.Clone(), psi.Clone()
	sl, sp := SoAFromVec(lam), SoAFromVec(psi)
	for q := 0; q < n; q++ {
		got[0] += ReverseRX(l, ps, q, beta)
		got[1] += gradPool().ReverseRX(lp, pp, q, beta)
		got[2] += sl.ReverseRX(gradPool(), sp, q, beta)
		got[3] += sl32.ReverseRX(gradPool(), sp32, q, beta)
	}
	for k, name := range []string{"serial", "pool", "soa", "soa32"} {
		tol := 1e-12
		if name == "soa32" {
			tol = 1e-5
		}
		if math.Abs(got[k]-want) > tol {
			t.Errorf("%s Σ_q ReverseRX = %v, want %v", name, got[k], want)
		}
	}
}

// TestImDotXYAgainstReference checks the per-edge xy derivative
// Im ⟨λ|H_e|ψ⟩ of the standalone serial and SoA32 reductions and of
// ReverseXY on all four representations.
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
			if got := sl32.ImDotXY(gradPool(), sp32, i, j); math.Abs(got-want) > 1e-5 {
				t.Errorf("SoA32 ImDotXY (%d,%d): got %v, want %v", i, j, got, want)
			}
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
		p := gradPool()
		sl, sp := SoAFromVec(lam0), SoAFromVec(psi0)
		for _, v := range []*SoA{sl, sp} {
			v.ApplyPhase(p, ph)
			v.ApplyUniformRX(p, beta)
			v.ApplyXY(p, 1, 4, beta)
		}
		sl.ReverseXY(p, sp, 1, 4, beta)
		for q := 0; q < n; q++ {
			sl.ReverseRX(p, sp, q, beta)
		}
		sl.ReversePhase(p, sp, ph, true)
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
		for q := 0; q < n; q++ {
			sl32.ReverseRX(p, sp32, q, beta)
		}
		sl32.ReversePhase(p, sp32, ph, true)
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

// TestSoA32ImDotXRange checks the single-precision range reduction
// against the complex128 ImDotXRange on the same (rounded) states: the
// SoA32 kernel accumulates in float64, so the only deviation is the
// float32 rounding of the inputs themselves.
func TestSoA32ImDotXRange(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 7
	lam64 := randState(rng, n)
	psi64 := randState(rng, n)
	lam32 := SoA32FromVec(lam64)
	psi32 := SoA32FromVec(psi64)
	// Evaluate the reference on the rounded values so the comparison
	// isolates the kernel, not the storage precision.
	lamR := lam32.ToVec()
	psiR := psi32.ToVec()
	p := NewPool(2)
	for _, r := range [][2]int{{0, n}, {0, 3}, {3, n}, {5, 5}, {2, 4}} {
		want := ImDotXRange(lamR, psiR, r[0], r[1])
		got := lam32.ImDotXRange(p, psi32, r[0], r[1])
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("range [%d,%d): SoA32 %v, complex128 %v", r[0], r[1], got, want)
		}
	}
	// Full range must agree with ImDotXAll on both representations.
	if got, want := lam32.ImDotXRange(p, psi32, 0, n), lam32.ImDotXAll(p, psi32); math.Abs(got-want) > 1e-12 {
		t.Errorf("full range %v != ImDotXAll %v", got, want)
	}
}
