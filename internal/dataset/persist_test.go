package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func tinyCampaign(t *testing.T) CampaignConfig {
	t.Helper()
	return CampaignConfig{
		Simulator:          Glucosym,
		Profiles:           2,
		EpisodesPerProfile: 2,
		Steps:              60,
		Seed:               11,
	}
}

// TestSaveLoadRoundTrip checks the acceptance requirement that campaigns
// round-trip exactly through the on-disk format (`apsim -out`): every
// sample, label, episode boundary, and fitted normalizer statistic must
// render identically after saving to a file and loading it back mapped —
// including the train split, whose normalizers are set.
func TestSaveLoadRoundTrip(t *testing.T) {
	ds, err := Generate(tinyCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := ds.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, d := range map[string]*Dataset{"full": ds, "train": train} {
		saved := colBytes(t, d)
		path := filepath.Join(dir, name+".col")
		if err := os.WriteFile(path, saved, 0o644); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		got, err := LoadColumnarFile(path, 0)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !bytes.Equal(jsonBytes(t, got), jsonBytes(t, d)) {
			t.Fatalf("%s: save→load round trip is not exact", name)
		}
		// Re-saving the loaded dataset must produce identical bytes — the
		// property warm-run byte-identical output rests on.
		if !bytes.Equal(colBytes(t, got), saved) {
			t.Fatalf("%s: re-saved bytes differ from original", name)
		}
		if name == "train" && (got.MLPNorm == nil || got.SeqNorm == nil) {
			t.Fatal("loaded train split lost its normalizers")
		}
	}
}

// TestCampaignFingerprint checks that the fingerprint canonicalizes over
// filled defaults (an explicit default and an omitted field collide) and
// separates every generation-relevant field.
func TestCampaignFingerprint(t *testing.T) {
	base := tinyCampaign(t)
	if base.Fingerprint() != base.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}
	explicit := base
	explicit.Window = 6 // the filled default
	explicit.Horizon = 12
	explicit.BGTarget = 140
	if base.Fingerprint() != explicit.Fingerprint() {
		t.Fatal("explicit defaults must fingerprint like omitted ones")
	}
	variants := []func(*CampaignConfig){
		func(c *CampaignConfig) { c.Simulator = T1DS },
		func(c *CampaignConfig) { c.Profiles++ },
		func(c *CampaignConfig) { c.EpisodesPerProfile++ },
		func(c *CampaignConfig) { c.Steps++ },
		func(c *CampaignConfig) { c.Window = 8 },
		func(c *CampaignConfig) { c.Horizon = 6 },
		func(c *CampaignConfig) { c.BGTarget = 120 },
		func(c *CampaignConfig) { c.Seed++ },
	}
	for i, mutate := range variants {
		v := base
		mutate(&v)
		if v.Fingerprint() == base.Fingerprint() {
			t.Fatalf("variant %d does not change the fingerprint", i)
		}
	}
	key := base.ArtifactKey()
	if key.Kind != "campaign" || key.Version != FormatVersion || key.Fingerprint != base.Fingerprint() {
		t.Fatalf("unexpected artifact key %v", key)
	}
}
