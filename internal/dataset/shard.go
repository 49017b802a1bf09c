package dataset

import (
	"fmt"

	"repro/internal/artifact"
)

// ShardConfig identifies one shard of a campaign: a contiguous global
// episode range [From, To) of the parent CampaignConfig, generated by an
// independent process. Shards are sub-fingerprinted under the parent
// campaign's fingerprint, so a fleet of workers sharing an artifact store
// content-address their slices consistently, and any change to the parent
// config invalidates every shard at once.
type ShardConfig struct {
	// Campaign is the parent configuration, with defaults filled — every
	// shard carries the full parent so it is generable in isolation.
	Campaign CampaignConfig
	// Count is the total number of shards the campaign was split into.
	Count int
	// Index is this shard's position in [0, Count).
	Index int
	// From and To bound the shard's global episode range [From, To) in the
	// parent's row-major (profile, episode) order.
	From int
	To   int
}

// Shard splits the campaign into n disjoint shard configs covering every
// episode exactly once. Ranges are the balanced contiguous partition
// [i·E/n, (i+1)·E/n) over E = Profiles × EpisodesPerProfile, so shard sizes
// differ by at most one episode when n does not divide E. n may exceed the
// episode count; the surplus shards are empty ranges that generate empty
// datasets and merge as no-ops.
func (c CampaignConfig) Shard(n int) ([]ShardConfig, error) {
	c.fill()
	if err := c.validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("dataset: shard count %d, want ≥ 1", n)
	}
	total := c.Profiles * c.EpisodesPerProfile
	shards := make([]ShardConfig, n)
	for i := range shards {
		shards[i] = ShardConfig{
			Campaign: c,
			Count:    n,
			Index:    i,
			From:     i * total / n,
			To:       (i + 1) * total / n,
		}
	}
	return shards, nil
}

// ShardAt returns shard i of the campaign's n-way split.
func (c CampaignConfig) ShardAt(n, i int) (ShardConfig, error) {
	shards, err := c.Shard(n)
	if err != nil {
		return ShardConfig{}, err
	}
	if i < 0 || i >= n {
		return ShardConfig{}, fmt.Errorf("dataset: shard index %d out of [0, %d)", i, n)
	}
	return shards[i], nil
}

// validate checks the shard's range against its (already filled) campaign.
func (s ShardConfig) validate() error {
	if err := s.Campaign.validate(); err != nil {
		return err
	}
	total := s.Campaign.Profiles * s.Campaign.EpisodesPerProfile
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("dataset: shard %d of %d is not a valid split position", s.Index, s.Count)
	}
	if s.From < 0 || s.From > s.To || s.To > total {
		return fmt.Errorf("dataset: shard range [%d, %d) outside campaign of %d episodes", s.From, s.To, total)
	}
	return nil
}

// Fingerprint sub-fingerprints the shard under its parent campaign: the
// parent fingerprint plus the shard's split position and episode range. Two
// fleets splitting the same campaign the same way therefore address the
// same artifacts, and changing the parent config (or the split) re-keys
// every affected shard.
func (s ShardConfig) Fingerprint() uint64 {
	return artifact.Fingerprint("campaignshard", s.Campaign.Fingerprint(),
		s.Count, s.Index, "range", s.From, s.To)
}

// ArtifactKey returns the content-addressed cache key of the shard dataset
// this config generates. Shards share the campaign FormatVersion: they are
// the same encoding, keyed under kind "campaignshard".
func (s ShardConfig) ArtifactKey() artifact.Key {
	return artifact.Key{Kind: "campaignshard", Version: FormatVersion, Fingerprint: s.Fingerprint()}
}

// GenerateShard runs exactly the shard's episode slice of the parent
// campaign. Episode seeds, scenario assignment, and profile mapping are all
// pure functions of the global episode index, so a shard's episodes are
// byte-identical to the same range of the monolithic Generate — which is
// what makes MergeCampaigns reassemble the exact parent dataset. Sample
// EpisodeID tags keep the global index (provenance of which parent episode
// produced the window).
func GenerateShard(s ShardConfig) (*Dataset, error) {
	s.Campaign.fill()
	if err := s.validate(); err != nil {
		return nil, err
	}
	return generateRange(s.Campaign, s.From, s.To)
}

// MergeCampaigns reassembles shard datasets (in shard order) into the
// monolithic campaign dataset: samples and episode ranges concatenate with
// re-based offsets, provenance concatenates aligned. The result is
// byte-identical to the parent's Generate when the shards cover the parent
// range in order. Normalizers are not merged — like Generate's output,
// the merged dataset is pre-split raw material (Split fits them).
func MergeCampaigns(shards []*Dataset) (*Dataset, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("dataset: merge: no shards")
	}
	first := shards[0]
	out := &Dataset{
		Simulator: first.Simulator,
		Window:    first.Window,
		Horizon:   first.Horizon,
		BGTarget:  first.BGTarget,
	}
	lastEpisode := -1
	for k, sh := range shards {
		if sh.Simulator != first.Simulator || sh.Window != first.Window ||
			sh.Horizon != first.Horizon || sh.BGTarget != first.BGTarget {
			return nil, fmt.Errorf("dataset: merge: shard %d (%s W=%d T=%d BGT=%g) diverges from shard 0 (%s W=%d T=%d BGT=%g)",
				k, sh.Simulator, sh.Window, sh.Horizon, sh.BGTarget,
				first.Simulator, first.Window, first.Horizon, first.BGTarget)
		}
		if len(sh.Scenarios) != len(sh.EpisodeIndex) || len(sh.Faults) != len(sh.EpisodeIndex) {
			return nil, fmt.Errorf("dataset: merge: shard %d provenance misaligned (%d scenarios, %d faults, %d episodes)",
				k, len(sh.Scenarios), len(sh.Faults), len(sh.EpisodeIndex))
		}
		if len(sh.Samples) > 0 {
			if id := sh.Samples[0].EpisodeID; id <= lastEpisode {
				return nil, fmt.Errorf("dataset: merge: shard %d starts at episode %d, not after episode %d — shards out of order or overlapping",
					k, id, lastEpisode)
			}
			lastEpisode = sh.Samples[len(sh.Samples)-1].EpisodeID
		}
		offset := len(out.Samples)
		out.Samples = append(out.Samples, sh.Samples...)
		for _, r := range sh.EpisodeIndex {
			out.EpisodeIndex = append(out.EpisodeIndex, [2]int{offset + r[0], offset + r[1]})
		}
		out.Scenarios = append(out.Scenarios, sh.Scenarios...)
		out.Faults = append(out.Faults, sh.Faults...)
	}
	return out, nil
}

// CachedShard returns the shard dataset for cfg, loading it from the
// artifact store when a current entry exists and generating (then
// persisting) it otherwise. Entries persist in the columnar binary
// encoding and load zero-copy. Unlike
// campaign loads, empty shard datasets are accepted: a shard whose range
// holds no episodes (Count > episode count) legitimately persists zero
// samples. This is the unit of fleet work:
// N processes each call CachedShard on their own shard against a shared
// store, and any later process reassembles the campaign from the cached
// slices without re-simulating anything.
func CachedShard(store artifact.Store, cfg ShardConfig) (ds *Dataset, hit bool, err error) {
	return CachedColumnar(store, cfg.ArtifactKey(),
		func() (*Dataset, error) { return GenerateShard(cfg) }, false)
}
