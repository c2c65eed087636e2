package statevec

// Native Go fuzz targets. FuzzFWHTInvolution: H^⊗n is an involution
// and an isometry, so for any state decoded from the fuzzer's bytes,
// applying FWHT twice must return the input and one application must
// preserve the norm. FuzzReverseX: the reverse step in the Walsh basis
// must undo the tiled forward layer and its pivot passes, and read
// both derivatives of the per-qubit reference. Seed corpora live in
// testdata/fuzz/; CI runs a short -fuzztime smoke on top of them.

import (
	"math"
	"math/cmplx"
	"testing"
)

// decodeState maps an arbitrary byte string onto an n-qubit state:
// byte 0 selects n ∈ [1,6]; amplitudes are read from the remaining
// bytes (cycled when short, so even tiny inputs produce full states).
func decodeState(data []byte) Vec {
	n := 1
	if len(data) > 0 {
		n += int(data[0] % 6)
		data = data[1:]
	}
	v := New(n)
	if len(data) == 0 {
		data = []byte{1}
	}
	at := func(i int) float64 { return (float64(data[i%len(data)]) - 127.5) / 128 }
	for i := range v {
		v[i] = complex(at(2*i), at(2*i+1))
	}
	return v
}

func FuzzFWHTInvolution(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 7, 200, 13, 0, 0, 255})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := decodeState(data)
		orig := v.Clone()
		normBefore := v.Norm()

		FWHT(v)
		if d := math.Abs(v.Norm() - normBefore); d > 1e-12*(1+normBefore) {
			t.Fatalf("FWHT changed the norm by %g (‖v‖=%g)", d, normBefore)
		}
		FWHT(v)
		scale := normBefore
		if scale < 1 {
			scale = 1
		}
		for i := range v {
			if d := cmplx.Abs(v[i] - orig[i]); d > 1e-12*scale {
				t.Fatalf("index %d: FWHT² deviates from identity by %g", i, d)
			}
		}
	})
}

// decodeReverse maps an arbitrary byte string onto a reverse-step case:
// byte 0 selects the stored qubits n ∈ [1, 14], byte 1 the pivot count
// h ∈ [0, 3], two bytes per pivot its nonzero mask μ < 2^n, two more
// bytes β and γ in about ±3; the rest (cycled) give the cost diagonal in
// [−4, 4] and a normalized state.
func decodeReverse(data []byte) (psi *split[float64], diag []float64, mus []int, beta, gamma float64) {
	at := func(i int) int {
		if len(data) == 0 {
			return 1
		}
		return int(data[i%len(data)])
	}
	n := 1 + at(0)%14
	h := at(1) % 4
	for j := 0; j < h; j++ {
		mus = append(mus, 1+(at(2+2*j)|at(3+2*j)<<8)%(1<<uint(n)-1))
	}
	off := 2 + 2*h
	beta, gamma = (float64(at(off))-127.5)/40, (float64(at(off+1))-127.5)/40
	off += 2
	v, diag := New(n), make([]float64, 1<<uint(n))
	for i := range v {
		v[i] = complex(float64(at(off+3*i))-127.5, float64(at(off+3*i+1))-127.5)
		diag[i] = (float64(at(off+3*i+2)) - 127.5) / 32
	}
	if v.Norm() == 0 {
		v[0] = 1
	}
	v.Normalize()
	return splitOf[float64](v), diag, mus, beta, gamma
}

func FuzzReverseX(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{15, 2, 0x55, 0x15, 0xaa, 0x2a, 160, 90, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 1, 0xff, 0xff, 10, 250, 200, 13, 0, 0, 255})
	f.Add([]byte{12, 3, 7, 0, 9, 1, 33, 2, 127, 128, 42, 17, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		psi0, diag, mus, beta, gamma := decodeReverse(data)
		n := numQubits(len(psi0.Re))
		p := NewPool(2)
		ph := Phase{Diag: diag, Gamma: gamma}
		psi := &split[float64]{append([]float64(nil), psi0.Re...), append([]float64(nil), psi0.Im...)}
		UniformRXPlanes(p, psi.Re, psi.Im, ph, beta)
		for _, mu := range mus {
			MirrorRXPlanes(p, psi.Re, psi.Im, mu, beta)
		}
		lam := &split[float64]{append([]float64(nil), psi.Re...), append([]float64(nil), psi.Im...)}
		MulDiagPlanes(p, lam.Re, lam.Im, ph)
		wantMixer, wantPhase := reversePerQubit(p, planes[float64]{append([]float64(nil), lam.Re...), append([]float64(nil), lam.Im...)},
			planes[float64]{append([]float64(nil), psi.Re...), append([]float64(nil), psi.Im...)}, beta, mus, ph, true)
		d := XDiag{N: n + len(mus), Stored: n, Masks: mus}
		mixer, phase, err := ReverseXPlanes(p, lam.Re, lam.Im, psi.Re, psi.Im, beta, d, ph, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dv := MaxAbsDiff(toVec(psi.Re, psi.Im), toVec(psi0.Re, psi0.Im)); dv > 1e-12 {
			t.Fatalf("n=%d pivots %v: the reverse step leaves ψ off its input by %g", n, mus, dv)
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{{"mixer", mixer, wantMixer}, {"phase", phase, wantPhase}} {
			if dv := math.Abs(c.got - c.want); dv > 1e-12*(math.Abs(c.want)+1) {
				t.Fatalf("n=%d pivots %v: %s derivative %v, per-qubit reference %v (off by %g)", n, mus, c.name, c.got, c.want, dv)
			}
		}
	})
}
