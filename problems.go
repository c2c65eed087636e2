package qokit

import (
	"qokit/internal/graphs"
	"qokit/internal/problems"
)

// Graph is a simple undirected graph on vertices 0..N−1, the substrate
// for MaxCut instances and xy-mixer topologies.
type Graph = graphs.Graph

// Edge is an undirected graph edge (U < V).
type Edge = graphs.Edge

// WeightedEdge is an edge with a real weight, for weighted MaxCut.
type WeightedEdge = graphs.WeightedEdge

// RandomRegular samples a seeded random d-regular simple graph — the
// MaxCut workload family of the paper's Fig. 2.
func RandomRegular(n, d int, seed int64) (Graph, error) { return graphs.RandomRegular(n, d, seed) }

// MaxCutTerms builds the MaxCut cost polynomial f(x) = −cut(x)
// (including the −|E|/2 offset).
func MaxCutTerms(g Graph) Terms { return problems.MaxCutTerms(g) }

// WeightedMaxCutTerms builds −(cut weight) for weighted edges.
func WeightedMaxCutTerms(edges []WeightedEdge) Terms { return problems.WeightedMaxCutTerms(edges) }

// AllToAllMaxCutTerms reproduces the paper's Listing 1 workload:
// complete-graph MaxCut with uniform weight w, quadratic terms only.
func AllToAllMaxCutTerms(n int, w float64) Terms { return problems.AllToAllMaxCutTerms(n, w) }

// MaxCutBrute exhaustively maximizes the cut (n ≤ 30).
func MaxCutBrute(g Graph) (best int, argmax uint64, err error) { return problems.MaxCutBrute(g) }

// LABSTerms builds the Low Autocorrelation Binary Sequences energy
// E(s) = Σ_k C_k(s)² as a canonical spin polynomial (the paper's §II
// cost function, QOKit's qokit.labs.get_terms).
func LABSTerms(n int) Terms { return problems.LABSTerms(n) }

// LABSEnergy evaluates E(s) directly from the autocorrelations.
func LABSEnergy(x uint64, n int) int { return problems.LABSEnergy(x, n) }

// MeritFactor returns Golay's merit factor n²/(2E).
func MeritFactor(n, energy int) float64 { return problems.MeritFactor(n, energy) }

// LABSOptimalEnergy returns the known optimal LABS energy for length n
// (table from exhaustive-search literature; verified against brute
// force for small n in this repository's tests).
func LABSOptimalEnergy(n int) (int, bool) { return problems.LABSOptimalEnergy(n) }

// LABSGroundStates enumerates all optimal LABS sequences (n ≤ 28).
func LABSGroundStates(n int) (states []uint64, energy int, err error) {
	return problems.LABSGroundStates(n)
}

// SATInstance is a CNF formula; Clause literals follow the DIMACS
// sign convention.
type SATInstance = problems.SATInstance

// Clause is one k-SAT clause.
type Clause = problems.Clause

// RandomKSAT samples a seeded uniformly random k-SAT instance (the
// ensemble of the paper's motivating 8-SAT study).
func RandomKSAT(n, k, m int, seed int64) (SATInstance, error) {
	return problems.RandomKSAT(n, k, m, seed)
}

// SATTerms expands the number of unsatisfied clauses into a spin
// polynomial with terms up to degree k.
func SATTerms(inst SATInstance) Terms { return problems.SATTerms(inst) }

// SKTerms generates a Sherrington–Kirkpatrick spin glass
// f(s) = (1/√n)Σ_{i<j} J_ij s_i s_j with standard-normal couplings —
// the random fully-connected counterpart of the Listing 1 workload.
func SKTerms(n int, seed int64) Terms { return problems.SKTerms(n, seed) }

// PortfolioData is a mean-variance portfolio selection instance, the
// xy-mixer workload of the paper's §IV.
type PortfolioData = problems.PortfolioData

// SyntheticPortfolio generates a seeded synthetic Markowitz instance
// (Σ = AAᵀ/n covariance, uniform expected returns).
func SyntheticPortfolio(n, budget int, q float64, seed int64) PortfolioData {
	return problems.SyntheticPortfolio(n, budget, q, seed)
}
