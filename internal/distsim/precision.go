// Single-precision distributed shards (§V-B carried onto the
// cluster): a shard's ψ and λ are float32 (re, im) planes, 8 B per
// amplitude, the layout of the single-node single-precision SoA
// backend. The shard engine is generic over the plane element
// (internal/shard), so float32 shards run the same kernels as float64
// ones, and every collective
// (cluster.Alltoall and cluster.Sendrecv instantiated at float32) moves
// 8 B per amplitude: half the per-rank state memory and half the fabric
// bytes, at identical message and synchronization counts. Phase factors,
// rotation coefficients and all reductions stay float64 — only storage
// and wire are single precision — so the distributed float32 path
// inherits the single-node single-precision error model (a few ULPs per layer,
// gradient band ~2e-3).
package distsim

import "fmt"

// Precision selects the sharded state's amplitude storage.
type Precision int

const (
	// PrecisionFloat64 stores float64 (re, im) planes (16 B per
	// amplitude) with float64 wire formats.
	PrecisionFloat64 Precision = iota
	// PrecisionFloat32 stores float32 (re, im) planes (8 B per
	// amplitude) with float32 wire formats, halving state memory and
	// fabric bytes.
	PrecisionFloat32
)

// String names the precision.
func (p Precision) String() string {
	switch p {
	case PrecisionFloat64:
		return "float64"
	case PrecisionFloat32:
		return "float32"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// AmpBytes returns the wire and storage size of one amplitude.
func (p Precision) AmpBytes() int64 {
	if p == PrecisionFloat32 {
		return 8
	}
	return 16
}

// ParsePrecision resolves a precision name.
func ParsePrecision(name string) (Precision, error) {
	switch name {
	case "", "float64", "f64", "double":
		return PrecisionFloat64, nil
	case "float32", "f32", "single":
		return PrecisionFloat32, nil
	default:
		return 0, fmt.Errorf("distsim: unknown precision %q (want float64 or float32)", name)
	}
}
