package params

import (
	"math"
	"math/rand"
	"testing"
)

func TestFourierAnglesShapes(t *testing.T) {
	u := []float64{0.8, -0.1}
	v := []float64{0.6, 0.05}
	gamma, beta := FourierAngles(u, v, 6)
	if len(gamma) != 6 || len(beta) != 6 {
		t.Fatalf("lengths (%d, %d), want 6", len(gamma), len(beta))
	}
	// q=1 with u_1 > 0, v_1 > 0 synthesizes the annealing shape:
	// γ increasing, β decreasing.
	g1, b1 := FourierAngles([]float64{0.7}, []float64{0.7}, 8)
	for l := 1; l < 8; l++ {
		if g1[l] <= g1[l-1] {
			t.Errorf("γ not increasing at ℓ=%d: %v", l, g1)
		}
		if b1[l] >= b1[l-1] {
			t.Errorf("β not decreasing at ℓ=%d: %v", l, b1)
		}
	}
	// Into variant matches and does not allocate.
	gg := make([]float64, 6)
	bb := make([]float64, 6)
	allocs := testing.AllocsPerRun(10, func() { FourierAnglesInto(u, v, gg, bb) })
	if allocs != 0 {
		t.Errorf("FourierAnglesInto allocated %.1f times", allocs)
	}
	for l := range gg {
		if gg[l] != gamma[l] || bb[l] != beta[l] {
			t.Errorf("Into variant differs at ℓ=%d", l)
		}
	}
}

func TestFourierAnglesValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { FourierAngles([]float64{1}, []float64{1, 2}, 4) },    // q mismatch
		func() { FourierAngles(nil, nil, 4) },                         // q = 0
		func() { FourierAngles([]float64{1, 2}, []float64{1, 2}, 1) }, // p < q
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Fourier shape accepted")
				}
			}()
			fn()
		}()
	}
}

// TestFourierGradChainRule checks the pullback against finite
// differences of an analytic function of the synthesized angles.
func TestFourierGradChainRule(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const q, p = 3, 7
	u := make([]float64, q)
	v := make([]float64, q)
	for k := range u {
		u[k] = rng.NormFloat64()
		v[k] = rng.NormFloat64()
	}
	// f(γ, β) = Σ_ℓ sin(γ_ℓ)·cos(β_ℓ) — a stand-in objective with
	// known angle gradient.
	f := func(u, v []float64) float64 {
		gamma, beta := FourierAngles(u, v, p)
		var s float64
		for l := range gamma {
			s += math.Sin(gamma[l]) * math.Cos(beta[l])
		}
		return s
	}
	gamma, beta := FourierAngles(u, v, p)
	gradGamma := make([]float64, p)
	gradBeta := make([]float64, p)
	for l := range gamma {
		gradGamma[l] = math.Cos(gamma[l]) * math.Cos(beta[l])
		gradBeta[l] = -math.Sin(gamma[l]) * math.Sin(beta[l])
	}
	gu := make([]float64, q)
	gv := make([]float64, q)
	FourierGrad(gradGamma, gradBeta, gu, gv)

	const h = 1e-6
	for k := 0; k < q; k++ {
		for _, c := range []struct {
			coef []float64
			grad float64
		}{{u, gu[k]}, {v, gv[k]}} {
			orig := c.coef[k]
			c.coef[k] = orig + h
			fp := f(u, v)
			c.coef[k] = orig - h
			fm := f(u, v)
			c.coef[k] = orig
			fd := (fp - fm) / (2 * h)
			if math.Abs(fd-c.grad) > 1e-8 {
				t.Errorf("k=%d: chain-rule grad %v vs fd %v", k, c.grad, fd)
			}
		}
	}
}
