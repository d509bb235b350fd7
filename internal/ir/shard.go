package ir

// Sharding is a block decomposition along the leading axis — the coarse,
// machine-level partition that sharded execution (see internal/legion)
// decomposes work over, one level above the per-point Tiling partitions
// tasks access stores through. It is orthogonal to the partitions of the
// tasks touching a store: partitions say which elements a point task
// reads or writes, sharding says which shard's region instance those
// elements live in. The shard count belongs to the runtime (one count for
// every store, or a rank's rank count), not to a store, so it is not part
// of the data model and stays out of the memo key.

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
