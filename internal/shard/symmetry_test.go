package shard

import (
	"math/rand"
	"testing"
)

// TestShardSymmetryPairsMeetOnOneRank checks the relabel on random
// pivot sets (h ≤ 3, n ≤ 9, K ≤ 4): whenever shardSymmetry accepts the
// pivots, relabel followed by an all-to-all puts every stored index x
// and its partner x ⊕ μ_j on one rank at local indices that differ by
// ν_j, and relabel is its own inverse; whenever it refuses them at
// K ≥ 2 with room for the layout, no linear f of the w bits solves
// f(w-part of μ_j) = a-part of μ_j (checked over every k × (n−h−2k)
// matrix).
func TestShardSymmetryPairsMeetOnOneRank(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	accepted, refused := 0, 0
	for trial := 0; trial < 3000; trial++ {
		n := 3 + rng.Intn(7)
		h := 1 + rng.Intn(min(3, n-1))
		k := rng.Intn(3)
		pivots := make([]uint64, h)
		for j := range pivots {
			pivots[j] = 1<<uint(n-h+j) | uint64(rng.Int63n(1<<uint(n-h)))
		}
		sym, ok := shardSymmetry(pivots, n, k)
		local, low := n-h-k, n-h-2*k
		if !ok {
			if k == 0 || local < 1 || low < 0 {
				continue
			}
			refused++
			for f := 0; f < 1<<uint(k*low); f++ {
				apply := func(w int) (a int) {
					for b := 0; b < low; b++ {
						if w>>uint(b)&1 == 1 {
							a ^= f >> uint(k*b) & (1<<uint(k) - 1)
						}
					}
					return a
				}
				solves := true
				for _, g := range pivots {
					mu := int(g) & (1<<uint(n-h) - 1)
					if apply(mu&(1<<uint(low)-1)) != mu>>uint(low)&(1<<uint(k)-1) || mu&(1<<uint(local)-1) == 0 && mu>>uint(local) == 0 {
						solves = false
						break
					}
				}
				if solves {
					t.Fatalf("n=%d k=%d pivots %b refused, but f=%b solves the layout", n, k, pivots, f)
				}
			}
			continue
		}
		accepted++
		ranks, size := 1<<uint(k), 1<<uint(local)
		// Each rank's plane holds the stored index of every amplitude.
		shards := make([]Planes[float64], ranks)
		for r := range shards {
			shards[r] = newPlanes[float64](size)
			for l := range shards[r].Re {
				shards[r].Re[l] = float64(r*size + l)
			}
			relabel(shards[r], &sym, ranks)
		}
		// The all-to-all: subchunk a of rank r lands at subchunk r of rank a.
		sub := size / ranks
		where := make([][2]int, ranks*size) // stored index → (rank, local)
		for r := range shards {
			for a := 0; a < ranks; a++ {
				for w := 0; w < sub; w++ {
					where[int(shards[r].Re[a*sub+w])] = [2]int{a, r*sub + w}
				}
			}
		}
		for x := range where {
			for j, g := range pivots {
				y := x ^ int(g)&(1<<uint(n-h)-1)
				if where[y][0] != where[x][0] || where[y][1] != where[x][1]^sym.masks[j] {
					t.Fatalf("n=%d k=%d pivots %b: %d at %v, partner %d at %v, want rank %d local %d",
						n, k, pivots, x, where[x], y, where[y], where[x][0], where[x][1]^sym.masks[j])
				}
			}
		}
		for r := range shards {
			relabel(shards[r], &sym, ranks)
			for l, v := range shards[r].Re {
				if int(v) != r*size+l {
					t.Fatalf("n=%d k=%d pivots %b: relabel is not its own inverse", n, k, pivots)
				}
			}
		}
	}
	if accepted < 500 || refused < 100 {
		t.Errorf("%d layouts accepted, %d refused: too few to exercise both branches", accepted, refused)
	}
}
