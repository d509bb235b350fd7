package ir

// A store's sharding is its block decomposition along the leading axis —
// the coarse, machine-level partition that sharded execution (see
// internal/legion) decomposes work over, one level above the per-point
// Tiling partitions tasks access stores through. It is orthogonal to the
// partitions of the tasks touching the store: partitions say which
// elements a point task reads or writes, sharding says which shard's
// region instance those elements live in.
//
// A sharding is a block count (<= 1 means unsharded) and a generation
// counter: resharding a store (changing its block decomposition
// mid-stream) bumps the generation, and the fusion layer's sixth constraint
// (internal/core) refuses to fuse across the boundary — tasks before and
// after a repartition must reach the runtime as separate tasks so it can
// move data between the decompositions.

// ShardBlock returns the half-open leading-axis interval [lo, hi) of
// shard s when extent elements are decomposed into shards equal blocks
// (the last block takes the remainder). Out-of-range shards return an
// empty interval at the end.
func ShardBlock(s, shards, extent int) (lo, hi int) {
	if shards <= 1 {
		if s == 0 {
			return 0, extent
		}
		return extent, extent
	}
	bs := (extent + shards - 1) / shards
	lo = s * bs
	hi = lo + bs
	if lo > extent {
		lo = extent
	}
	if hi > extent {
		hi = extent
	}
	return lo, hi
}

// SetShards stamps the store's shard count at creation time (generation
// unchanged). Use Reshard to change the decomposition of a live store.
func (s *Store) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	s.shardCount.Store(int64(n))
}

// Reshard changes the store's block decomposition and bumps the
// repartition generation. Tasks submitted before and after a Reshard carry
// different generations in their arguments, which is what the fusion
// layer's repartition constraint keys on.
func (s *Store) Reshard(n int) {
	if n < 1 {
		n = 1
	}
	s.shardCount.Store(int64(n))
	s.shardGen.Add(1)
}

// ShardCount returns the store's current shard count (>= 1).
func (s *Store) ShardCount() int {
	n := int(s.shardCount.Load())
	if n < 1 {
		return 1
	}
	return n
}

// ShardGen returns the store's current repartition generation.
func (s *Store) ShardGen() int64 { return s.shardGen.Load() }

// ShardBlock returns the leading-axis row interval [lo, hi) of shard i
// under the store's current decomposition.
func (s *Store) ShardBlock(i int) (lo, hi int) {
	if len(s.shape) == 0 {
		return 0, 0
	}
	return ShardBlock(i, s.ShardCount(), s.shape[0])
}
