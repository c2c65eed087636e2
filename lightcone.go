package qokit

import (
	"qokit/internal/lightcone"
)

// LightConeSimulator is the light-cone MaxCut evaluator: instead of one
// 2^n statevector it simulates, for every edge, only the radius-p
// neighborhood that can influence that edge's cut expectation — exact
// for QAOA depth p ≤ the configured radius — and dedups isomorphic
// neighborhoods so random-regular instances collapse to a handful of
// unique simulations. Problem size is bounded by the cone size (degree
// and radius), not the vertex count: thousand-vertex 3-regular MaxCut
// at p = 2 runs in seconds where the statevector path caps out near
// n ≈ 30. It serves the same Energy/EnergyGrad/Caps contract as
// Simulator, so optimizers, batch loops, and Service pools drive it
// unchanged.
type LightConeSimulator = lightcone.Engine

// LightConeOptions configures a LightConeSimulator (cone radius — the
// maximum exact QAOA depth — fan-out worker count, per-cone backend,
// and the cone-size guard).
type LightConeOptions = lightcone.Options

// LightConeStats reports the cone decomposition of one instance:
// edge count, unique cone classes after isomorphism dedup, the dedup
// hit rate, and the largest cone's qubit count.
type LightConeStats = lightcone.Stats

// NewLightConeSimulator builds the light-cone evaluator for unweighted
// MaxCut on g. Energies and gradients match NewSimulator with
// MaxCutTerms(g) to floating-point accuracy for depths p ≤ opts.Radius.
func NewLightConeSimulator(g Graph, opts LightConeOptions) (*LightConeSimulator, error) {
	return lightcone.New(g, opts)
}

// NewWeightedLightConeSimulator is NewLightConeSimulator for weighted
// MaxCut on an explicit edge list over vertices 0..n−1.
func NewWeightedLightConeSimulator(n int, edges []WeightedEdge, opts LightConeOptions) (*LightConeSimulator, error) {
	return lightcone.NewWeighted(n, edges, opts)
}
