package ir

import "testing"

// TestShardBlockPartitionsExtent: blocks tile the extent exactly — in
// order, non-overlapping, covering — for divisible and ragged extents.
func TestShardBlockPartitionsExtent(t *testing.T) {
	for _, tc := range []struct{ shards, extent int }{
		{1, 7}, {2, 8}, {3, 8}, {4, 10}, {8, 5}, {4, 0},
	} {
		prev := 0
		for s := 0; s < tc.shards; s++ {
			lo, hi := ShardBlock(s, tc.shards, tc.extent)
			if lo != prev {
				t.Fatalf("shards=%d extent=%d: block %d starts at %d, want %d", tc.shards, tc.extent, s, lo, prev)
			}
			if hi < lo || hi > tc.extent {
				t.Fatalf("shards=%d extent=%d: block %d = [%d,%d) out of range", tc.shards, tc.extent, s, lo, hi)
			}
			prev = hi
		}
		if prev != tc.extent {
			t.Fatalf("shards=%d extent=%d: blocks cover %d", tc.shards, tc.extent, prev)
		}
	}
}

// TestStoreShardingAndGenerations: stores carry their shard count and a
// generation that only Reshard advances.
func TestStoreShardingAndGenerations(t *testing.T) {
	var f Factory
	s := f.NewStore("s", []int{12})
	if s.ShardCount() != 1 || s.ShardGen() != 0 {
		t.Fatalf("fresh store sharding = %d/%d, want 1/0", s.ShardCount(), s.ShardGen())
	}
	s.SetShards(4)
	if s.ShardCount() != 4 || s.ShardGen() != 0 {
		t.Fatalf("SetShards changed the generation: %d/%d", s.ShardCount(), s.ShardGen())
	}
	if lo, hi := s.ShardBlock(1); lo != 3 || hi != 6 {
		t.Fatalf("ShardBlock(1) = [%d,%d), want [3,6)", lo, hi)
	}
	s.Reshard(2)
	if s.ShardCount() != 2 || s.ShardGen() != 1 {
		t.Fatalf("Reshard: %d/%d, want 2/1", s.ShardCount(), s.ShardGen())
	}
}
