package statevec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFusedMixerMatchesAlgorithm2 checks the split layouts' tiled F = 2
// mixer (ApplyUniformRX) against Algorithm 2's per-qubit sweep on the
// serial complex128 reference, on one and three workers.
func TestFusedMixerMatchesAlgorithm2(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 13, 14} {
		for _, beta := range []float64{0, 0.31, -1.2, math.Pi / 2} {
			v := randomState(rng, n)
			want := v.Clone()
			ApplyUniformRX(want, beta)
			for _, workers := range []int{1, 3} {
				p := NewPool(workers)
				soa := SoAFromVec(v)
				soa.ApplyUniformRX(p, beta)
				if d := MaxAbsDiff(soa.ToVec(), want); d > 1e-12 {
					t.Fatalf("n=%d β=%v workers=%d: SoA tiled mixer differs by %g", n, beta, workers, d)
				}
				soa32 := SoA32FromVec(v)
				soa32.ApplyUniformRX(p, beta)
				if d := MaxAbsDiff(soa32.ToVec(), want); d > 1e-5 {
					t.Fatalf("n=%d β=%v workers=%d: SoA32 tiled mixer differs by %g", n, beta, workers, d)
				}
			}
		}
	}
}

// Property (testing/quick): the tiled F = 2 mixer is unitary for any
// angle.
func TestQuickFusedUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	v := randomState(rng, 7) // odd n exercises the lone last qubit
	p := NewPool(1)
	f := func(raw int8) bool {
		beta := float64(raw) / 13
		w := SoAFromVec(v)
		w.ApplyUniformRX(p, beta)
		return math.Abs(w.ToVec().Norm()-v.Norm()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFusedVsPerQubitMixer(b *testing.B) {
	n := 18
	p := NewPool(0)
	b.Run("per-qubit-aos", func(b *testing.B) {
		v := NewUniform(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ApplyUniformRX(v, 0.57)
		}
	})
	b.Run("per-qubit-soa", func(b *testing.B) {
		s := NewSoAUniform(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for q := 0; q < n; q++ {
				s.ApplyRX(p, q, 0.57)
			}
		}
	})
	b.Run("tiled-soa", func(b *testing.B) {
		s := NewSoAUniform(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ApplyUniformRX(p, 0.57)
		}
	})
}
