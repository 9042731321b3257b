package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per shard. 64 points per
// shard keeps the worst/best shard load ratio under ~1.5 for realistic
// fleet sizes while the whole ring for 64 shards still fits in one
// cache-friendly sorted slice of 4096 points.
const DefaultVNodes = 64

// Ring is a deterministic consistent-hash ring: each shard contributes
// vnodes points (FNV-1a of "name#i"), keys hash the same way and land
// on the first point clockwise. Determinism is load-bearing — every
// router instance, on every host, must agree where a gateway lives, so
// there is no seed and no randomness, and equal hash points are broken
// by shard name. The zero shard set routes nothing (Lookup returns "").
//
// Ring methods are not safe for concurrent use; the Router serializes
// access under its own lock.
type Ring struct {
	vnodes int
	shards map[string]bool
	points []ringPoint // sorted by (hash, shard)
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing builds a ring with the given virtual-node count (0 →
// DefaultVNodes) over the initial shard set.
func NewRing(vnodes int, shards ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes, shards: make(map[string]bool)}
	for _, s := range shards {
		r.Add(s)
	}
	return r
}

// Add inserts a shard's virtual nodes. Adding a present shard is a
// no-op, so membership changes are idempotent.
func (r *Ring) Add(shard string) {
	if r.shards[shard] {
		return
	}
	r.shards[shard] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(shard, i), shard: shard})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].shard < r.points[b].shard
	})
}

// Remove deletes a shard's virtual nodes; its keys redistribute over
// the survivors (and only those keys move — the consistent-hashing
// contract the tests pin). Removing an absent shard is a no-op.
func (r *Ring) Remove(shard string) {
	if !r.shards[shard] {
		return
	}
	delete(r.shards, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Lookup returns the shard owning key, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: past the last point means the first point clockwise
	}
	return r.points[i].shard
}

// Shards returns the member shard names, sorted.
func (r *Ring) Shards() []string {
	out := make([]string, 0, len(r.shards))
	for s := range r.shards {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// keyHash is FNV-1a over the gateway ID, pushed through a 64-bit
// avalanche finalizer. FNV alone is unusable here: IDs that share a
// prefix ("home-0001", "home-0002", ...) hash within a few multiples
// of the FNV prime (~2^40) of each other, so a whole deployment's keys
// cluster on one arc of the 2^64 ring. The finalizer (the MurmurHash3
// fmix64 mix) spreads them uniformly while staying deterministic,
// stdlib-only and stable across processes and releases (unlike
// maphash, which is seeded per process).
func keyHash(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key)) // fnv.Write cannot fail
	return mix64(h.Sum64())
}

func vnodeHash(shard string, i int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(shard)) // fnv.Write cannot fail
	_, _ = h.Write([]byte{'#'})
	_, _ = h.Write([]byte(strconv.Itoa(i)))
	return mix64(h.Sum64())
}

// mix64 is MurmurHash3's fmix64 finalizer: an invertible xor-shift /
// multiply cascade with full avalanche (every input bit flips ~half
// the output bits).
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
