package optimize

import (
	"fmt"

	"qokit/internal/checkpoint"
)

// The checkpoint kind tag and payload version of AdamState. The frame
// container carries its own version; this one covers the field layout.
const (
	adamStateKind    = "qokit/adam-state"
	adamStateVersion = 1
)

// AdamState is the complete Adam trajectory state after a finished
// iteration: everything the update rule reads, plus the bookkeeping a
// resumed result must continue (best iterate, counters). Adam has no
// randomness, so this state fully determines the remaining trajectory
// — a resumed run is bit-identical to one that never stopped.
type AdamState struct {
	// X is the current iterate; M and V the first/second moments.
	X, M, V []float64
	// B1t and B2t are the accumulated bias-correction products
	// Beta1^Iter and Beta2^Iter.
	B1t, B2t float64
	// Iter counts completed iterations; the resumed loop continues at
	// this index.
	Iter int
	// BestX and BestF track the best iterate seen (Adam is not a
	// descent method; the last iterate may be worse).
	BestX []float64
	BestF float64
	// Evals is the objective-evaluation count so far.
	Evals int
}

func (st *AdamState) validate(dim int) error {
	if len(st.X) != dim || len(st.M) != dim || len(st.V) != dim || len(st.BestX) != dim {
		return fmt.Errorf("optimize: resume state dimensions (x=%d m=%d v=%d best=%d) do not match problem dimension %d",
			len(st.X), len(st.M), len(st.V), len(st.BestX), dim)
	}
	if st.Iter < 0 {
		return fmt.Errorf("optimize: resume state has negative iteration count %d", st.Iter)
	}
	return nil
}

// Encode serializes the state into a checkpoint payload.
func (st *AdamState) Encode() []byte {
	var e checkpoint.Encoder
	e.U32(adamStateVersion)
	e.F64s(st.X)
	e.F64s(st.M)
	e.F64s(st.V)
	e.F64(st.B1t)
	e.F64(st.B2t)
	e.Int(st.Iter)
	e.F64s(st.BestX)
	e.F64(st.BestF)
	e.Int(st.Evals)
	return e.Bytes()
}

// DecodeAdamState parses a payload produced by Encode.
func DecodeAdamState(payload []byte) (*AdamState, error) {
	d := checkpoint.NewDecoder(payload)
	if v := d.U32(); d.Err() == nil && v != adamStateVersion {
		return nil, fmt.Errorf("optimize: adam state version %d unsupported (want %d)", v, adamStateVersion)
	}
	st := &AdamState{
		X:   d.F64s(),
		M:   d.F64s(),
		V:   d.F64s(),
		B1t: d.F64(),
		B2t: d.F64(),
	}
	st.Iter = d.Int()
	st.BestX = d.F64s()
	st.BestF = d.F64()
	st.Evals = d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return st, nil
}

// SaveAdamState atomically writes the state to path.
func SaveAdamState(path string, st *AdamState) error {
	return checkpoint.WriteFile(path, adamStateKind, st.Encode())
}

// LoadAdamState reads a state written by SaveAdamState. A missing file
// surfaces as fs.ErrNotExist (callers treat it as "start fresh").
func LoadAdamState(path string) (*AdamState, error) {
	payload, err := checkpoint.ReadFile(path, adamStateKind)
	if err != nil {
		return nil, err
	}
	return DecodeAdamState(payload)
}
