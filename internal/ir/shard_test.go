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
