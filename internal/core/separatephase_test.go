package core

import "testing"

// separatePhaseDiag is a deterministic integer-valued test diagonal.
func separatePhaseDiag(n int) []float64 {
	diag := make([]float64, 1<<uint(n))
	for i := range diag {
		diag[i] = float64((i*2654435761)%17) - 8
	}
	return diag
}

// TestSeparatePhaseAblation pins the fused layer's contract: the default
// fused phase+mixer layer is bit-identical to the SeparatePhase
// ablation on every backend (the fused kernels replay the exact
// unfused arithmetic) — the per-qubit sweep on complex128 and the
// tiled F = 2 kernel on SoA and SoA32 — for odd and even n, on both
// sides of the tile boundary at n = 12, and on both sides of the
// half-state rule: a hashed diagonal keeps the full state, LABS takes
// the half state on the split layouts.
func TestSeparatePhaseAblation(t *testing.T) {
	gamma := []float64{0.7, -0.3}
	beta := []float64{0.4, 0.9}
	for _, n := range []int{5, 6, 13, 14} {
		for _, c := range []struct {
			name      string
			diag      []float64
			symmetric bool
		}{
			{"hashed", separatePhaseDiag(n), false},
			{"labs", problemDiag(t, n), true},
		} {
			checkSeparatePhase(t, n, c.name, c.diag, c.symmetric, gamma, beta)
		}
	}
}

// checkSeparatePhase runs TestSeparatePhaseAblation on one diagonal.
func checkSeparatePhase(t *testing.T, n int, name string, diag []float64, symmetric bool, gamma, beta []float64) {
	for _, base := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{Backend: BackendSerial}},
		{"parallel", Options{Backend: BackendParallel, Workers: 3}},
		{"soa", Options{Backend: BackendSoA, Workers: 2}},
		{"soa32", Options{Backend: BackendSoA, SinglePrecision: true}},
	} {
		fusedOpts := base.opts
		sepOpts := base.opts
		sepOpts.SeparatePhase = true
		fs, err := NewFromDiagonal(n, diag, fusedOpts)
		if err != nil {
			t.Fatalf("n=%d %s: %v", n, base.name, err)
		}
		sp, err := NewFromDiagonal(n, diag, sepOpts)
		if err != nil {
			t.Fatalf("n=%d %s separate: %v", n, base.name, err)
		}
		half := symmetric && base.opts.Backend == BackendSoA
		requireHalfSide(t, name+" "+base.name, fs, half)
		requireHalfSide(t, name+" "+base.name+" separate", sp, half)
		rf, err := fs.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sp.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		a, b := rf.StateVector(), rs.StateVector()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d %s %s: fused layer not bit-identical to separate phase at %d: %v vs %v",
					n, name, base.name, i, a[i], b[i])
			}
		}
	}
}

// TestSeparatePhaseXYMixers checks the fused-layer dispatch leaves the
// xy mixer families untouched: SeparatePhase must be a no-op there
// (the layer never fuses), on all four representations.
func TestSeparatePhaseXYMixers(t *testing.T) {
	gamma := []float64{0.5}
	beta := []float64{0.8}
	for _, mixer := range []Mixer{MixerXYRing, MixerXYComplete} {
		for _, n := range []int{5, 6} {
			diag := separatePhaseDiag(n)
			for _, base := range []Options{
				{Backend: BackendSerial, Mixer: mixer},
				{Backend: BackendParallel, Mixer: mixer, Workers: 2},
				{Backend: BackendSoA, Mixer: mixer},
				{Backend: BackendSoA, Mixer: mixer, SinglePrecision: true},
			} {
				sep := base
				sep.SeparatePhase = true
				s1, err := NewFromDiagonal(n, diag, base)
				if err != nil {
					t.Fatal(err)
				}
				s2, err := NewFromDiagonal(n, diag, sep)
				if err != nil {
					t.Fatal(err)
				}
				r1, err := s1.SimulateQAOA(gamma, beta)
				if err != nil {
					t.Fatal(err)
				}
				r2, err := s2.SimulateQAOA(gamma, beta)
				if err != nil {
					t.Fatal(err)
				}
				a, b := r1.StateVector(), r2.StateVector()
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%v n=%d: SeparatePhase changed the xy evolution at %d", mixer, n, i)
					}
				}
			}
		}
	}
}
