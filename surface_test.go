package qokit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// facadeSurface is the root package's exported top-level identifiers,
// sorted. A name added to or deleted from the façade must show up here
// as a diff.
var facadeSurface = []string{
	"Adam", "AdamOptions", "AdamResult", "AllToAllMaxCutTerms", "AlltoallAlgo",
	"ArgMinEnergies", "Backend", "BackendAuto", "BackendSerial", "BackendSoA",
	"BuildQAOACircuit", "ChooseSimulator", "Circuit", "Clause", "CommCounters",
	"DefaultNetworkModel", "DistCheckpointOptions", "DistFloat32", "DistFloat64",
	"DistOptions", "DistPrecision", "DistResult", "DistributedGradEngine", "Edge",
	"ElasticOptions", "ErrNonFiniteAngle", "ErrNonFiniteCost", "ErrObservableLength",
	"ErrQubitRange", "EvalOutputs", "Evaluator", "EvaluatorCaps", "EvaluatorFactory",
	"FuncGrad", "GateEngine", "Graph", "JobOptions", "LABSEnergy", "LABSGroundStates",
	"LABSOptimalEnergy", "LABSTerms", "LightConeOptions", "LightConeSimulator",
	"LightConeStats", "MaxCutBrute", "MaxCutTerms", "MaxShotsPerRequest", "MeritFactor",
	"Mixer", "MixerRoute", "MixerX", "MixerXYComplete", "MixerXYRing", "NMOptions",
	"NMResult", "NelderMead", "NetworkModel", "NewDistributedFactory",
	"NewDistributedGradEngine", "NewElasticService", "NewGateEngine",
	"NewLightConeFactory", "NewLightConeSimulator", "NewProblemRegistry",
	"NewRegistryService", "NewService", "NewSimulator", "NewSimulatorFromDiagonal",
	"NewSweepFactory", "NewTerm", "NewTerms", "NewWeightedLightConeSimulator",
	"OptimizeParameters", "OptimizeParametersAdam", "OptimizeParametersAdamFourier",
	"OptimizeParametersAdamInterp", "OptimizeParametersInterp", "Options",
	"OutputEvaluator", "OutputSpec", "Pairwise", "PortfolioData", "PrecomputeDiagonal",
	"ProblemHandle", "ProblemKey", "ProblemKeyFor", "ProblemRegistry", "ProblemSpec",
	"RandomKSAT", "RandomRegular", "RegistryOptions", "RegistryServiceOptions",
	"RegistryStats", "Result", "RouteAuto", "RouteFWHT", "RouteSweep", "SATInstance",
	"SATTerms", "SKTerms", "SampleChunkSize", "SampleStreamer", "Service",
	"SimulateQAOADistributed", "SimulateQAOADistributedCheckpointed",
	"Simulator", "StateVector", "SweepGrid", "SyntheticPortfolio", "TQAInit", "Term",
	"Terms", "Transpose", "WeightedEdge", "WeightedMaxCutTerms", "Workspace",
}

// TestFacadeSurface parses the package's non-test files and compares
// their exported top-level names (functions, types, constants and
// variables; methods excluded) with facadeSurface.
func TestFacadeSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	got := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							got[s.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								got[name.Name] = true
							}
						}
					}
				}
			}
		}
	}
	want := map[string]bool{}
	for _, name := range facadeSurface {
		want[name] = true
	}
	var added, removed []string
	for name := range got {
		if !want[name] {
			added = append(added, name)
		}
	}
	for name := range want {
		if !got[name] {
			removed = append(removed, name)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	if len(added)+len(removed) > 0 {
		t.Errorf("façade surface changed: added %v, removed %v (update facadeSurface)", added, removed)
	}
}
