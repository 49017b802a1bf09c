package dataset

import "repro/internal/artifact"

// FormatVersion identifies the on-disk campaign encoding. Bump it whenever
// the Dataset schema, the feature/label derivation, or the episode
// generation changes incompatibly — cached campaigns from older versions
// then become unreachable and are regenerated.
//
// v2: per-episode seeds are splitmix-derived (CampaignConfig.EpisodeSeed)
// instead of the affine formula, episodes carry scenario provenance, and
// the scenario mix entered the fingerprint.
//
// v3: episodes additionally carry fault-type provenance (Dataset.Faults),
// the slice dimension evaluation reports break confusion matrices down by.
//
// v4: campaigns and shards persist in the columnar binary encoding
// (EncodeColumnar/DecodeColumnarBytes) instead of JSON, loaded zero-copy
// via mmap. A pure encoding bump: the generated data and the campaign
// fingerprints are unchanged — only the artifact bytes moved, orphaning v3
// cache entries (reclaim them with `apsexperiments -cache-prune`). The
// columnar blob is the only campaign encoding; `apsim -out` writes it too.
const FormatVersion = 4

// Fingerprint hashes the canonicalized campaign configuration (after
// defaults are filled, so explicit and implicit defaults collide as they
// should). Two configs with equal fingerprints generate byte-identical
// campaigns. Workers is deliberately excluded: output is byte-identical at
// every worker count.
func (c CampaignConfig) Fingerprint() uint64 {
	c.fill()
	return artifact.Fingerprint("campaign", c.Simulator, c.Profiles, c.EpisodesPerProfile,
		c.Steps, c.Window, c.Horizon, c.BGTarget, c.Seed, c.Scenarios.String())
}

// ArtifactKey returns the content-addressed cache key of the campaign this
// config generates.
func (c CampaignConfig) ArtifactKey() artifact.Key {
	return artifact.Key{Kind: "campaign", Version: FormatVersion, Fingerprint: c.Fingerprint()}
}
