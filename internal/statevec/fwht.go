package statevec

import "math"

// FWHT applies the normalized fast Walsh–Hadamard transform H^⊗n in
// place, one butterfly stage per qubit. Applying it twice recovers the
// input (H is an involution). The paper's §III-B notes the mixer at
// β = π/2 is exactly this transform; tests use it as an independent
// reference for the mixer, e^{−iβΣX} = H^⊗n · diag(e^{−iβ(n−2|x|)}) · H^⊗n.
func FWHT(v Vec) {
	n := v.NumQubits()
	inv := complex(1/math.Sqrt2, 0)
	for q := 0; q < n; q++ {
		stride := 1 << uint(q)
		for base := 0; base < len(v); base += 2 * stride {
			for off := 0; off < stride; off++ {
				l1 := base + off
				l2 := l1 + stride
				y1, y2 := v[l1], v[l2]
				v[l1] = (y1 + y2) * inv
				v[l2] = (y1 - y2) * inv
			}
		}
	}
}
