package relation

import (
	"fmt"

	"mview/internal/schema"
	"mview/internal/tuple"
)

// Hash sharding of base relations. A Relation is internally a list of
// parts (hash-sharded row arenas); tuples are routed by hashing one
// designated shard-key attribute (the first attribute by default).
// Sharding is a representation property only: every operator and
// accessor observes identical set semantics at any shard count. It
// exists so that
//
//   - commit-time pre-clones are O(#shards), not O(#tuples): Clone
//     shares the part arenas copy-on-write and a mutation clones, in
//     O(1), only the one part it lands in (per-shard dirty tracking),
//     and
//   - differential maintenance can split a delta by shard and fan the
//     per-shard sub-deltas out onto the worker pool, merging the
//     partial view deltas with the §5 counted operators.
//
// Both are safe because the paper's §4 irrelevance test and §5 counted
// differentials are tuple-local: a disjoint partition of the delta
// yields disjoint derivation sets whose ⊎-merge is exact.

// ShardOf returns the shard a key value hashes to among n shards. The
// mix is the splitmix64/murmur3 finalizer, so consecutive key values
// spread uniformly. n <= 1 always yields shard 0.
func ShardOf(v tuple.Value, n int) int {
	if n <= 1 {
		return 0
	}
	x := uint64(v)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// NewSharded returns an empty relation over the given scheme split into
// n hash shards keyed on the attribute at position key.
func NewSharded(s *schema.Scheme, key, n int) (*Relation, error) {
	if n < 1 {
		return nil, fmt.Errorf("relation: shard count %d < 1", n)
	}
	if key < 0 || key >= s.Arity() {
		return nil, fmt.Errorf("relation: shard key position %d outside scheme %s", key, s)
	}
	r := &Relation{
		scheme: s,
		key:    key,
		parts:  make([]*rowArena, n),
		shared: make([]bool, n),
	}
	for i := range r.parts {
		r.parts[i] = newRowArena(s.Arity())
	}
	return r, nil
}

// Shards returns the number of hash shards (1 for unsharded relations).
func (r *Relation) Shards() int { return len(r.parts) }

// ShardKey returns the position of the shard-key attribute.
func (r *Relation) ShardKey() int { return r.key }

// ShardLen returns the number of tuples in shard i.
func (r *Relation) ShardLen(i int) int { return r.parts[i].len() }

// part returns the shard index tuple t routes to.
func (r *Relation) part(t tuple.Tuple) int {
	if len(r.parts) == 1 {
		return 0
	}
	return ShardOf(t[r.key], len(r.parts))
}

// writable returns part i's arena, first cloning it (in O(1),
// preserving handles) if it is shared with a clone or a published
// snapshot: an update pays only for the shards it touches.
func (r *Relation) writable(i int) *rowArena {
	if r.shared[i] {
		r.parts[i] = r.parts[i].cloneShared()
		r.shared[i] = false
	}
	return r.parts[i]
}

// put inserts t without arity checking; the arena copies t's values,
// so callers may pass scratch tuples. Present tuples are left
// untouched (set semantics).
func (r *Relation) put(t tuple.Tuple) {
	p := r.part(t)
	_, hash, ok := r.parts[p].find(t, nil)
	if ok {
		return
	}
	r.writable(p).add(hash, t, nil)
	r.n++
}
