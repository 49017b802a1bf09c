package dataset

import (
	"bytes"
	"testing"

	"repro/internal/artifact"
)

// colBytes encodes a dataset the way `apsim -out` writes it, so
// byte-equality here is exactly the CI `cmp` contract.
// totalEpisodes returns the campaign's episode count after defaults are
// filled — the range Shard partitions.
func totalEpisodes(c CampaignConfig) int {
	c.fill()
	return c.Profiles * c.EpisodesPerProfile
}

func colBytes(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ds.EncodeColumnar(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// generateShards runs every shard of the n-way split independently and
// merges them back into one campaign dataset.
func generateShards(t *testing.T, cfg CampaignConfig, n int) *Dataset {
	t.Helper()
	shards, err := cfg.Shard(n)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*Dataset, len(shards))
	for i, sc := range shards {
		parts[i], err = GenerateShard(sc)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
	}
	merged, err := MergeCampaigns(parts)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestShardMergeByteIdenticalToMonolith pins the tentpole guarantee: for any
// shard count — dividing the 12-episode campaign or not, at any worker
// setting — generating the shards independently and reassembling them with
// MergeCampaigns serializes to exactly the monolithic Generate bytes.
func TestShardMergeByteIdenticalToMonolith(t *testing.T) {
	mono, err := Generate(benchScaleCampaign(1))
	if err != nil {
		t.Fatal(err)
	}
	want := colBytes(t, mono)
	for _, n := range []int{1, 2, 4, 7} {
		for _, workers := range []int{1, 8} {
			merged := generateShards(t, benchScaleCampaign(workers), n)
			if got := colBytes(t, merged); !bytes.Equal(got, want) {
				t.Errorf("shards=%d workers=%d: merged campaign bytes differ from monolithic Generate", n, workers)
			}
		}
	}
}

// TestShardRangesPartitionCampaign pins the split algebra: the n shards are
// contiguous, disjoint, in order, cover every episode exactly once, and are
// balanced to within one episode.
func TestShardRangesPartitionCampaign(t *testing.T) {
	cfg := benchScaleCampaign(1)
	total := totalEpisodes(cfg)
	if total != 12 {
		t.Fatalf("benchScaleCampaign has %d episodes, want 12", total)
	}
	for _, n := range []int{1, 2, 3, 5, 7, 12, 20} {
		shards, err := cfg.Shard(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != n {
			t.Fatalf("Shard(%d) returned %d shards", n, len(shards))
		}
		next, min, max := 0, total, 0
		for i, sc := range shards {
			if sc.Count != n || sc.Index != i {
				t.Fatalf("Shard(%d)[%d] labeled %d/%d", n, i, sc.Index, sc.Count)
			}
			if sc.From != next {
				t.Fatalf("Shard(%d)[%d] starts at %d, want %d (contiguous)", n, i, sc.From, next)
			}
			next = sc.To
			if e := sc.To - sc.From; e < min {
				min = e
			}
			if e := sc.To - sc.From; e > max {
				max = e
			}
		}
		if next != total {
			t.Fatalf("Shard(%d) covers [0,%d), want [0,%d)", n, next, total)
		}
		if n <= total && max-min > 1 {
			t.Fatalf("Shard(%d) sizes range %d..%d, want balanced to within 1", n, min, max)
		}
	}
}

// TestShardValidation covers the error surface: bad counts, out-of-range
// indices, and ranges outside the campaign.
func TestShardValidation(t *testing.T) {
	cfg := benchScaleCampaign(1)
	if _, err := cfg.Shard(0); err == nil {
		t.Error("Shard(0) succeeded, want error")
	}
	if _, err := cfg.ShardAt(4, -1); err == nil {
		t.Error("ShardAt(4, -1) succeeded, want error")
	}
	if _, err := cfg.ShardAt(4, 4); err == nil {
		t.Error("ShardAt(4, 4) succeeded, want error")
	}
	sc, err := cfg.ShardAt(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc.To = totalEpisodes(cfg) + 1
	if _, err := GenerateShard(sc); err == nil {
		t.Error("GenerateShard with range past the campaign succeeded, want error")
	}
	sc.From, sc.To = 5, 3
	if _, err := GenerateShard(sc); err == nil {
		t.Error("GenerateShard with inverted range succeeded, want error")
	}
}

// TestShardSurplusShardsAreEmpty pins the n > episodes contract: surplus
// shards generate empty datasets and merge as no-ops.
func TestShardSurplusShardsAreEmpty(t *testing.T) {
	cfg := benchScaleCampaign(1)
	n := totalEpisodes(cfg) + 3
	mono, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := generateShards(t, cfg, n)
	if !bytes.Equal(colBytes(t, merged), colBytes(t, mono)) {
		t.Fatalf("merging %d shards of a %d-episode campaign is not byte-identical to Generate", n, totalEpisodes(cfg))
	}
	shards, err := cfg.Shard(n)
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for _, sc := range shards {
		if sc.To == sc.From {
			empty++
			ds, err := GenerateShard(sc)
			if err != nil {
				t.Fatalf("empty shard %d: %v", sc.Index, err)
			}
			if ds.Len() != 0 || len(ds.EpisodeIndex) != 0 {
				t.Fatalf("empty shard %d generated %d samples", sc.Index, ds.Len())
			}
		}
	}
	if empty != 3 {
		t.Fatalf("%d empty shards, want 3", empty)
	}
}

// TestShardFingerprints pins the sub-fingerprint contract: shards are keyed
// under the parent, distinct across split positions, and re-keyed when the
// parent config changes.
func TestShardFingerprints(t *testing.T) {
	cfg := benchScaleCampaign(1)
	seen := map[uint64]string{}
	for _, n := range []int{2, 4} {
		shards, err := cfg.Shard(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range shards {
			fp := sc.Fingerprint()
			if prev, dup := seen[fp]; dup {
				t.Fatalf("shard %d/%d collides with %s", sc.Index, sc.Count, prev)
			}
			seen[fp] = sc.ArtifactKey().String()
		}
	}
	a, err := cfg.ShardAt(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed++
	b, err := cfg2.ShardAt(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("changing the parent campaign seed did not re-key the shard")
	}
}

// TestCachedShard pins the fleet caching contract: a second CachedShard call
// against the same store hits and returns byte-identical data — including
// for empty surplus shards, which a campaign lookup would reject as corrupt
// but a shard lookup must not.
func TestCachedShard(t *testing.T) {
	cfg := benchScaleCampaign(1)
	cfg.Profiles, cfg.EpisodesPerProfile = 2, 2
	store, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shards, err := cfg.Shard(5) // 4 episodes → one empty surplus shard
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range shards {
		cold, hit, err := CachedShard(store, sc)
		if err != nil {
			t.Fatalf("cold shard %d: %v", sc.Index, err)
		}
		if hit {
			t.Fatalf("cold shard %d claimed a cache hit", sc.Index)
		}
		warm, hit, err := CachedShard(store, sc)
		if err != nil {
			t.Fatalf("warm shard %d: %v", sc.Index, err)
		}
		if !hit {
			t.Fatalf("warm shard %d missed the cache", sc.Index)
		}
		if !bytes.Equal(colBytes(t, cold), colBytes(t, warm)) {
			t.Fatalf("shard %d round-trip through the store is not byte-identical", sc.Index)
		}
	}
}
