// Checkpoint/restart for the distributed forward pipeline: at layer
// boundaries every rank's amplitude shard is captured into a
// ShardSnapshot and persisted through internal/checkpoint's framed,
// checksummed, atomically-renamed container. A run that dies
// mid-collective (a rank failure, a cancelled context, a crashed host)
// restarts from the last captured boundary with bit-identical state —
// replaying the remaining layers applies exactly the operators the
// uninterrupted run would have, so checkpointed and uninterrupted
// results agree bitwise, in every shard representation (float64 or
// float32 planes, float64 or coded diagonal slices).
//
// The capture protocol is collective: a barrier publishes every rank's
// copy, rank 0 alone writes the file, and a second barrier keeps peers
// from overwriting the capture buffers while the write is in flight.
// A failed write aborts the group — peers unwind with the write error
// instead of stalling at their next collective.
package distsim

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"qokit/internal/checkpoint"
	"qokit/internal/cluster"
	"qokit/internal/core"
	"qokit/internal/poly"
	"qokit/internal/shard"
	"qokit/internal/statevec"
)

const (
	shardSnapshotKind    = "qokit/shard-snapshot"
	shardSnapshotVersion = 2
)

// ShardSnapshot is the durable image of a distributed run at one layer
// boundary: every rank's amplitude shard plus the metadata a resuming
// run is validated against. Exactly one amplitude representation is
// populated — Shards for float64 state, encoded as complex128, or Re/Im
// for float32 planes. The diagonal's form is not recorded: it follows
// from the problem, and coded slices never change the state.
type ShardSnapshot struct {
	N             int
	Ranks         int
	Mixer         core.Mixer
	HammingWeight int
	Precision     Precision
	// Layer counts completed phase+mixer layers: resuming applies
	// layers Layer…p−1.
	Layer int
	// GammaPrefix and BetaPrefix record the Layer consumed angles, so
	// a resume under a different trajectory fails compat instead of
	// silently evolving a foreign state.
	GammaPrefix, BetaPrefix []float64

	Shards []statevec.Vec
	Re, Im [][]float32
}

// Encode serializes the snapshot payload (wrap with
// checkpoint.EncodeFrame or SaveShardSnapshot for the on-disk form).
func (s *ShardSnapshot) Encode() []byte {
	var e checkpoint.Encoder
	e.U32(shardSnapshotVersion)
	e.Int(s.N)
	e.Int(s.Ranks)
	e.Int(int(s.Mixer))
	e.Int(s.HammingWeight)
	e.Int(int(s.Precision))
	e.Int(s.Layer)
	e.F64s(s.GammaPrefix)
	e.F64s(s.BetaPrefix)
	if s.Precision == PrecisionFloat32 {
		for r := range s.Re {
			e.F32s(s.Re[r])
			e.F32s(s.Im[r])
		}
	} else {
		for _, shard := range s.Shards {
			e.C128s(shard)
		}
	}
	return e.Bytes()
}

// DecodeShardSnapshot parses and validates a snapshot payload. The
// metadata is checked against the same rules Options.validate applies,
// so a corrupted or cross-configuration payload fails before any shard
// is interpreted.
func DecodeShardSnapshot(payload []byte) (*ShardSnapshot, error) {
	d := checkpoint.NewDecoder(payload)
	if v := d.U32(); d.Err() == nil && v != shardSnapshotVersion {
		return nil, fmt.Errorf("distsim: unsupported shard snapshot version %d (want %d)", v, shardSnapshotVersion)
	}
	s := &ShardSnapshot{
		N:             d.Int(),
		Ranks:         d.Int(),
		Mixer:         core.Mixer(d.Int()),
		HammingWeight: d.Int(),
		Precision:     Precision(d.Int()),
		Layer:         d.Int(),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if s.N < 1 || s.N > 62 {
		return nil, fmt.Errorf("distsim: shard snapshot has n=%d qubits", s.N)
	}
	k, err := Options{
		Ranks: s.Ranks, Mixer: s.Mixer, HammingWeight: s.HammingWeight,
		Precision: s.Precision,
	}.validate(s.N)
	if err != nil {
		return nil, fmt.Errorf("distsim: shard snapshot metadata: %w", err)
	}
	if s.Layer < 0 {
		return nil, fmt.Errorf("distsim: shard snapshot has negative layer %d", s.Layer)
	}
	s.GammaPrefix = d.F64s()
	s.BetaPrefix = d.F64s()
	if d.Err() == nil && (len(s.GammaPrefix) != s.Layer || len(s.BetaPrefix) != s.Layer) {
		return nil, fmt.Errorf("distsim: shard snapshot at layer %d holds %d+%d prefix angles",
			s.Layer, len(s.GammaPrefix), len(s.BetaPrefix))
	}
	localSize := 1 << uint(s.N-k)
	if s.Precision == PrecisionFloat32 {
		s.Re = make([][]float32, s.Ranks)
		s.Im = make([][]float32, s.Ranks)
		for r := 0; r < s.Ranks; r++ {
			s.Re[r] = d.F32s()
			s.Im[r] = d.F32s()
			if d.Err() == nil && (len(s.Re[r]) != localSize || len(s.Im[r]) != localSize) {
				return nil, fmt.Errorf("distsim: shard snapshot rank %d holds %d+%d amplitudes, want %d",
					r, len(s.Re[r]), len(s.Im[r]), localSize)
			}
		}
	} else {
		s.Shards = make([]statevec.Vec, s.Ranks)
		for r := 0; r < s.Ranks; r++ {
			s.Shards[r] = d.C128s()
			if d.Err() == nil && len(s.Shards[r]) != localSize {
				return nil, fmt.Errorf("distsim: shard snapshot rank %d holds %d amplitudes, want %d",
					r, len(s.Shards[r]), localSize)
			}
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("distsim: shard snapshot has %d trailing bytes", d.Remaining())
	}
	return s, nil
}

// SaveShardSnapshot atomically persists the snapshot at path.
func SaveShardSnapshot(path string, s *ShardSnapshot) error {
	return checkpoint.WriteFile(path, shardSnapshotKind, s.Encode())
}

// LoadShardSnapshot reads and validates the snapshot at path. A
// missing file surfaces as fs.ErrNotExist, so callers distinguish "no
// checkpoint yet" from a corrupted one.
func LoadShardSnapshot(path string) (*ShardSnapshot, error) {
	payload, err := checkpoint.ReadFile(path, shardSnapshotKind)
	if err != nil {
		return nil, err
	}
	return DecodeShardSnapshot(payload)
}

// compat verifies the snapshot describes this run's simulation: every
// mismatch names the diverging field so a resume against the wrong
// problem, trajectory, or option set fails loudly instead of computing
// garbage.
func (s *ShardSnapshot) compat(n int, gamma, beta []float64, opts Options) error {
	p := len(gamma)
	switch {
	case s.N != n:
		return fmt.Errorf("distsim: checkpoint is for n=%d qubits, run has n=%d", s.N, n)
	case s.Ranks != opts.Ranks:
		return fmt.Errorf("distsim: checkpoint is for %d ranks, run has %d", s.Ranks, opts.Ranks)
	case s.Mixer != opts.Mixer:
		return fmt.Errorf("distsim: checkpoint mixer %v does not match run mixer %v", s.Mixer, opts.Mixer)
	case s.Mixer != core.MixerX && s.HammingWeight != opts.hammingWeight(n):
		return fmt.Errorf("distsim: checkpoint Hamming weight %d does not match run weight %d",
			s.HammingWeight, opts.hammingWeight(n))
	case s.Precision != opts.Precision:
		return fmt.Errorf("distsim: checkpoint precision %v does not match run precision %v", s.Precision, opts.Precision)
	case s.Layer > p:
		return fmt.Errorf("distsim: checkpoint at layer %d exceeds run depth p=%d", s.Layer, p)
	}
	for l := 0; l < s.Layer; l++ {
		if s.GammaPrefix[l] != gamma[l] || s.BetaPrefix[l] != beta[l] {
			return fmt.Errorf("distsim: checkpoint layer %d was evolved with (γ=%v, β=%v), run has (γ=%v, β=%v)",
				l, s.GammaPrefix[l], s.BetaPrefix[l], gamma[l], beta[l])
		}
	}
	return nil
}

// ckptPlan threads resume and capture state through GradEngine.evolve; the
// zero value is a plain uncheckpointed run. When snap is set, every
// rank stores its shard in it after each layer l with l%every == 0 and
// after the last layer, and rank 0 writes it to path.
type ckptPlan struct {
	start  int
	resume *ShardSnapshot
	snap   *ShardSnapshot
	every  int
	path   string
}

// A snapshot always holds the full state, split over the ranks in
// 2^(n−k)-amplitude slices, whichever shard form wrote it. Group shards
// store each stored amplitude at every member of its orbit and load
// their stored indices only, so full, half and group shards resume from
// each other's files.

// slot returns the (rank, local index) of global basis index x in the
// snapshot layout.
func (e *GradEngine) slot(x uint64) (r, i uint64) {
	localN := uint(e.n - e.k)
	return x >> localN, x & (1<<localN - 1)
}

// load copies a rank's stored amplitudes out of s.
func (e *GradEngine) load(sh shard.Shard, s *ShardSnapshot) {
	sh.Load(func(x uint64) (float64, float64) {
		r, j := e.slot(x)
		if s.Precision == PrecisionFloat32 {
			return float64(s.Re[r][j]), float64(s.Im[r][j])
		}
		a := s.Shards[r][j]
		return real(a), imag(a)
	})
}

// store copies a rank's ψ into s: each stored amplitude at every member
// x ⊕ g of its orbit. Ranks write disjoint slots.
func (e *GradEngine) store(sh shard.Shard, s *ShardSnapshot) {
	group := e.eng.Config().Sym.Group
	sh.Store(func(x uint64, re, im float64) {
		for _, g := range group {
			r, j := e.slot(x ^ g)
			if s.Precision == PrecisionFloat32 {
				s.Re[r][j], s.Im[r][j] = float32(re), float32(im)
			} else {
				s.Shards[r][j] = complex(re, im)
			}
		}
	})
}

// CheckpointOptions configures durable layer-boundary snapshots for a
// distributed forward run.
type CheckpointOptions struct {
	// Path is the snapshot file: written atomically at every captured
	// boundary, consumed (and removed) by a completing run. A resuming
	// call with the same Path picks up from whatever the file holds.
	Path string
	// EveryLayers is the capture cadence in completed layers (≤ 0
	// selects every layer). Boundaries are counted absolutely, so a
	// resumed run captures at the same layers the original would have.
	EveryLayers int
}

// SimulateQAOACheckpointed is SimulateQAOA with durable layer-boundary
// snapshots: if ck.Path holds a compatible checkpoint the run resumes
// from it (replaying only the remaining layers), otherwise it starts
// fresh; either way each captured boundary atomically replaces the
// file. A completed run removes the file — its presence marks an
// in-flight job. The checkpointed trajectory is bit-identical to an
// uninterrupted SimulateQAOA in every shard representation.
func SimulateQAOACheckpointed(ctx context.Context, n int, terms poly.Terms, gamma, beta []float64, opts Options, ck CheckpointOptions) (*Result, error) {
	if ck.Path == "" {
		return nil, fmt.Errorf("distsim: CheckpointOptions.Path must be set")
	}
	k, err := opts.validate(n)
	if err != nil {
		return nil, err
	}
	plan := ckptPlan{path: ck.Path, every: ck.EveryLayers}
	snap, err := LoadShardSnapshot(ck.Path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// No checkpoint yet: a fresh run.
	case err != nil:
		return nil, fmt.Errorf("distsim: reading checkpoint: %w", err)
	default:
		if err := snap.compat(n, gamma, beta, opts); err != nil {
			return nil, err
		}
		plan.resume, plan.start = snap, snap.Layer
	}
	if plan.every <= 0 {
		plan.every = 1
	}

	// The capture buffer is shared across ranks; the barriers inside
	// writeSnapshot order every rank's copy against rank 0's file write.
	localSize := 1 << uint(n-k)
	plan.snap = &ShardSnapshot{
		N: n, Ranks: opts.Ranks, Mixer: opts.Mixer,
		HammingWeight: opts.hammingWeight(n),
		Precision:     opts.Precision,
	}
	for r := 0; r < opts.Ranks; r++ {
		if opts.Precision == PrecisionFloat32 {
			plan.snap.Re = append(plan.snap.Re, make([]float32, localSize))
			plan.snap.Im = append(plan.snap.Im, make([]float32, localSize))
		} else {
			plan.snap.Shards = append(plan.snap.Shards, make(statevec.Vec, localSize))
		}
	}

	res, err := simulate(ctx, n, terms, gamma, beta, opts, plan)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(ck.Path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("distsim: removing completed checkpoint: %w", err)
	}
	return res, nil
}

// writeSnapshot is the collective capture protocol: the first barrier
// publishes every rank's shard copy to rank 0, which alone stamps the
// layer and writes the file atomically; the second barrier keeps peers
// from overwriting the capture buffers while the write is in flight. A
// failed write aborts the group so every rank unwinds with the write
// error instead of stalling at its next collective.
func writeSnapshot(c *cluster.Comm, snap *ShardSnapshot, layer int, gamma, beta []float64, path string) error {
	if err := c.Barrier(); err != nil {
		return err
	}
	if c.Rank() == 0 {
		snap.Layer = layer
		snap.GammaPrefix = gamma[:layer]
		snap.BetaPrefix = beta[:layer]
		if err := SaveShardSnapshot(path, snap); err != nil {
			err = fmt.Errorf("distsim: writing checkpoint: %w", err)
			c.Abort(err)
			return err
		}
	}
	return c.Barrier()
}
