package qokit

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// relDiff is |a−b| / max(1, |b|): the rtol the acceptance criteria
// are stated in.
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Abs(b))
}

// TestServiceRoundTrip: one Service round-trips the same three request
// shapes — a single point, a 64-point grid, and an Adam run — on both
// a pool of single-node workspaces and a pool of two ranks=4
// distributed engines, matching the direct simulator paths to rtol
// 1e-10.
func TestServiceRoundTrip(t *testing.T) {
	const n, p, rtol = 8, 3, 1e-10
	terms := LABSTerms(n)
	sim, err := NewSimulator(n, terms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Direct reference paths: one simulator evaluation, the grid point
	// by point, one Adam run on a workspace.
	gamma, beta := TQAInit(p, 0.75)
	x := append(append([]float64(nil), gamma...), beta...)
	refPoint, err := sim.Energy(ctx, x)
	if err != nil {
		t.Fatal(err)
	}

	gammas := make([]float64, 8)
	betas := make([]float64, 8)
	for i := range gammas {
		gammas[i] = 0.1 + 0.3*float64(i)
		betas[i] = 0.05 + 0.15*float64(i)
	}
	xs := SweepGrid(gammas, betas) // 64 points
	refGrid := make([]float64, len(xs))
	for i, xi := range xs {
		if refGrid[i], err = sim.Energy(ctx, xi); err != nil {
			t.Fatal(err)
		}
	}

	var refErr error
	ws := sim.NewWorkspace()
	refAdam := Adam(func(x, g []float64) float64 {
		e, err := ws.EnergyGrad(ctx, x, g)
		if err != nil && refErr == nil {
			refErr = err
		}
		return e
	}, x, AdamOptions{MaxIter: 20})
	if refErr != nil {
		t.Fatal(refErr)
	}

	services := []struct {
		name  string
		build func() (*Service, error)
	}{
		{"local", func() (*Service, error) {
			return NewService([]Evaluator{sim.NewWorkspace(), sim.NewWorkspace()})
		}},
		{"distributed-4ranks", func() (*Service, error) {
			// Two engines of one factory: two sharded evaluations in
			// flight over one registry precompute.
			reg := NewProblemRegistry(RegistryOptions{})
			key, err := reg.Register(ProblemSpec{N: n, Terms: terms})
			if err != nil {
				return nil, err
			}
			f, err := NewDistributedFactory(reg, key, DistOptions{Ranks: 4, Algo: Transpose})
			if err != nil {
				return nil, err
			}
			evals := make([]Evaluator, 2)
			for i := range evals {
				if evals[i], err = f.New(ctx); err != nil {
					return nil, err
				}
			}
			return NewService(evals)
		}},
	}
	for _, tc := range services {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()

			// Single point.
			e, err := svc.Energy(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			if d := relDiff(e, refPoint); d > rtol {
				t.Errorf("point energy off by rtol %g", d)
			}

			// 64-point grid as one batch request.
			got, err := svc.EnergyBatch(ctx, xs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 64 {
				t.Fatalf("grid returned %d energies", len(got))
			}
			for i := range got {
				if d := relDiff(got[i], refGrid[i]); d > rtol {
					t.Errorf("grid point %d off by rtol %g", i, d)
				}
			}

			// Adam run over the service objective.
			var simErr error
			res := Adam(svc.GradObjective(ctx, &simErr), x, AdamOptions{MaxIter: 20})
			if simErr != nil {
				t.Fatal(simErr)
			}
			if res.Evals != refAdam.Evals {
				t.Errorf("Adam evals %d != direct %d", res.Evals, refAdam.Evals)
			}
			if d := relDiff(res.F, refAdam.F); d > rtol {
				t.Errorf("Adam optimum off by rtol %g", d)
			}
			for i := range res.X {
				if d := math.Abs(res.X[i] - refAdam.X[i]); d > rtol {
					t.Errorf("Adam x[%d] off by %g", i, d)
				}
			}
		})
	}
}

// rendezvous is a size-2 barrier: the first two evaluations must be in
// flight simultaneously before either proceeds. If the service ever
// serialized distributed evaluations, the rendezvous would time out and
// fail the test — so passing *demonstrates* ≥ 2 concurrent sharded
// evaluations.
type rendezvous struct {
	t       *testing.T
	mu      sync.Mutex
	arrived int
	ready   chan struct{}
}

func (r *rendezvous) wait() {
	r.mu.Lock()
	r.arrived++
	n := r.arrived
	r.mu.Unlock()
	if n == 2 {
		close(r.ready)
	}
	select {
	case <-r.ready:
	case <-time.After(30 * time.Second):
		r.t.Error("second concurrent distributed evaluation never arrived: service serialized")
	}
}

// gatedEvaluator wraps an Evaluator so that its evaluations pass the
// shared rendezvous first.
type gatedEvaluator struct {
	Evaluator
	r *rendezvous
}

func (g *gatedEvaluator) Energy(ctx context.Context, x []float64) (float64, error) {
	g.r.wait()
	return g.Evaluator.Energy(ctx, x)
}

func (g *gatedEvaluator) EnergyGrad(ctx context.Context, x, grad []float64) (float64, error) {
	g.r.wait()
	return g.Evaluator.EnergyGrad(ctx, x, grad)
}

// TestDistributedServiceConcurrentEvaluations: two sharded
// evaluations, one on each of two engines the service holds, are
// demonstrably in flight at once on the ranks=4 substrate (run under
// -race in CI), and both produce exact results.
func TestDistributedServiceConcurrentEvaluations(t *testing.T) {
	const n, p = 8, 2
	terms := LABSTerms(n)
	r := &rendezvous{t: t, ready: make(chan struct{})}
	var gates []Evaluator
	for i := 0; i < 2; i++ {
		deng, err := NewDistributedGradEngine(n, terms, DistOptions{Ranks: 4, Algo: Transpose})
		if err != nil {
			t.Fatal(err)
		}
		gates = append(gates, &gatedEvaluator{Evaluator: deng, r: r})
	}
	svc, err := NewService(gates)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	sim, err := NewSimulator(n, terms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gamma, beta := TQAInit(p, 0.6)
	x := append(append([]float64(nil), gamma...), beta...)
	want, err := sim.Energy(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g := make([]float64, 2*p)
			var e float64
			var err error
			if k == 0 {
				e, err = svc.Energy(context.Background(), x)
			} else {
				e, err = svc.EnergyGrad(context.Background(), x, g)
			}
			if err != nil {
				t.Error(err)
				return
			}
			if d := relDiff(e, want); d > 1e-10 {
				t.Errorf("concurrent evaluation %d off by rtol %g", k, d)
			}
		}(k)
	}
	wg.Wait()
}

// TestNilInputsRejected: every service and factory constructor of the
// façade answers a nil evaluator, factory or registry with an error
// naming it, never a nil-pointer panic.
func TestNilInputsRejected(t *testing.T) {
	reg := NewProblemRegistry(RegistryOptions{})
	key, err := reg.Register(ProblemSpec{N: 4, Terms: LABSTerms(4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		build      func() error
	}{
		{"NewService", "evaluator 1 is nil", func() error {
			sim, err := NewSimulator(4, LABSTerms(4), Options{})
			if err != nil {
				return err
			}
			_, err = NewService([]Evaluator{sim.NewWorkspace(), nil})
			return err
		}},
		{"NewElasticService", "factory 0 is nil", func() error {
			_, err := NewElasticService([]EvaluatorFactory{nil}, ElasticOptions{})
			return err
		}},
		{"NewRegistryService", "nil ProblemRegistry", func() error {
			_, err := NewRegistryService(nil, key, RegistryServiceOptions{})
			return err
		}},
		{"NewSweepFactory", "nil ProblemRegistry", func() error {
			_, err := NewSweepFactory(nil, key, Options{}, 0)
			return err
		}},
		{"NewDistributedFactory", "nil ProblemRegistry", func() error {
			_, err := NewDistributedFactory(nil, key, DistOptions{Ranks: 2})
			return err
		}},
		{"NewLightConeFactory", "nil ProblemRegistry", func() error {
			_, err := NewLightConeFactory(nil, key, LightConeOptions{})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.build(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
