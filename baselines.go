package qokit

import (
	"qokit/internal/gatesim"
)

// The conventional gate-by-gate state-vector engine the paper
// benchmarks against (Qiskit/cuStateVec analogue) is part of the public
// API so downstream users can rerun the comparison.

// Circuit is a gate-level quantum circuit (the conventional program
// representation the fast simulator bypasses).
type Circuit = gatesim.Circuit

// GateEngine executes circuits gate by gate on a state vector.
type GateEngine = gatesim.Engine

// BuildQAOACircuit compiles a full QAOA circuit the way a gate-based
// framework must: Hadamards, then per layer a CX-ladder phase operator
// and RX mixer.
func BuildQAOACircuit(n int, terms Terms, gamma, beta []float64) (*Circuit, error) {
	return gatesim.BuildQAOA(n, terms, gamma, beta)
}

// NewGateEngine returns a serial gate-based engine (Qiskit Aer CPU
// analogue).
func NewGateEngine() *GateEngine { return gatesim.NewEngine() }
