package core

// This file holds the group state of symmetric costs (see Simulator),
// which generalizes the half state of flip-symmetric ones. Let H be the
// XOR masks g with C(x ⊕ g) = C(x) for every x. With the |+⟩ start and
// the x mixer, every layer commutes with X^g for each g ∈ H, so
// ψ(x ⊕ g) = ψ(x) after every layer, and the adjoint's bra λ = Ĉψ keeps
// the same symmetry. costvec.TermPivots (from the terms) or
// costvec.SymmetryPivots (from a caller's diagonal) picks h pivots in H,
// one per top qubit n−h+j, whose top h bits are that qubit's alone; their
// 2^h products (costvec.Group) form the group, indexed by top bits. A
// group state stores the full state's amplitude values at the 2^(n−h)
// indices whose top h bits are zero, so ‖ψ_stored‖² = 2^−h and every
// scale factor is an exact power of two; basis state x is read at
// x ⊕ group[x >> (n−h)]. h = 1 with the complement is the half state;
// LABS takes h = 2. The shard engine (internal/shard) runs the group
// state as a single rank: qubits below n−h by the tiled kernels on the
// stored planes, as an (n−h)-qubit state, and each top qubit as a pivot
// pass.

// group returns the 2^h elements states are stored over; {0} stores
// the full state.
func (s *Simulator) group() []uint64 { return s.eng.Config().Sym.Group }

// pivots returns h, the number of top qubits the group carries.
func (s *Simulator) pivots() int { return len(s.eng.Config().Sym.Pivots) }
