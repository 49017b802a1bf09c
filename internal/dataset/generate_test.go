package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// benchScaleCampaign is the shape the CI determinism smoke runs.
func benchScaleCampaign(workers int) CampaignConfig {
	return CampaignConfig{
		Simulator:          Glucosym,
		Profiles:           3,
		EpisodesPerProfile: 4,
		Steps:              80,
		Seed:               7,
		Scenarios: sim.ScenarioMix{
			{Name: sim.ScenarioNominal, Weight: 2},
			{Name: sim.ScenarioRandomFault, Weight: 1},
			{Name: sim.ScenarioSensorDrift, Weight: 1},
		},
		Workers: workers,
	}
}

// TestCampaignParallelByteIdentical pins the tentpole guarantee: the
// serialized campaign bytes are identical at every worker count, because
// per-episode seeds derive from (campaign seed, episode index) and results
// are assembled in (profile, episode) order.
func TestCampaignParallelByteIdentical(t *testing.T) {
	var serial bytes.Buffer
	ds, err := Generate(benchScaleCampaign(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EncodeColumnar(&serial); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		var par bytes.Buffer
		dsp, err := Generate(benchScaleCampaign(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := dsp.EncodeColumnar(&par); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial.Bytes(), par.Bytes()) {
			t.Fatalf("campaign bytes differ between workers=1 and workers=%d", workers)
		}
	}
}

// TestGenerateMatchesFromTraces pins the fused streaming path against the
// two-stage one: windowing traces as they complete must produce the same
// dataset as materializing all traces first.
func TestGenerateMatchesFromTraces(t *testing.T) {
	cfg := benchScaleCampaign(4)
	fused, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := FromTraces(traces, 6, 12, 140) // the filled defaults of cfg
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fused, staged) {
		t.Fatal("Generate and FromTraces(RunCampaign) disagree")
	}
}

func TestCampaignScenarioProvenance(t *testing.T) {
	cfg := benchScaleCampaign(2)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Scenarios) != len(ds.EpisodeIndex) {
		t.Fatalf("scenario provenance for %d of %d episodes", len(ds.Scenarios), len(ds.EpisodeIndex))
	}
	// The per-profile assignment repeats for every profile: 2:1:1 over 4
	// episodes gives each profile 2 nominal, 1 random_fault, 1 sensor_drift.
	assign := cfg.Scenarios.Assign(cfg.EpisodesPerProfile)
	for prof := 0; prof < cfg.Profiles; prof++ {
		for ep := 0; ep < cfg.EpisodesPerProfile; ep++ {
			want := cfg.Scenarios[assign[ep]].Name
			got := ds.Scenarios[prof*cfg.EpisodesPerProfile+ep]
			if got != want {
				t.Fatalf("episode (%d,%d) scenario %q, want %q", prof, ep, got, want)
			}
		}
	}
	// Split keeps provenance aligned with its episode subset.
	train, test, err := ds.Split(0.75)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Dataset{train, test} {
		if len(d.Scenarios) != len(d.EpisodeIndex) {
			t.Fatalf("split lost scenario provenance: %d of %d", len(d.Scenarios), len(d.EpisodeIndex))
		}
	}
	counts := map[string]int{}
	for _, s := range append(append([]string{}, train.Scenarios...), test.Scenarios...) {
		counts[s]++
	}
	if counts[sim.ScenarioNominal] != 6 || counts[sim.ScenarioRandomFault] != 3 || counts[sim.ScenarioSensorDrift] != 3 {
		t.Fatalf("split scenario counts %v, want 6/3/3", counts)
	}
}

// oldEpisodeSeed is the pre-v2 affine seed formula, kept here to document
// its collision.
func oldEpisodeSeed(seed int64, prof, ep int) int64 {
	return seed + int64(prof)*1_000_003 + int64(ep)*7_907
}

// TestEpisodeSeedCollisionFree is the regression test for the seed-formula
// fix: the affine formula collides across (profile, episode) pairs at large
// campaign sizes, the splitmix-derived one cannot (it is a bijection of the
// flat episode index).
func TestEpisodeSeedCollisionFree(t *testing.T) {
	// The documented collision of the old formula.
	if oldEpisodeSeed(1, 7907, 0) != oldEpisodeSeed(1, 0, 1_000_003) {
		t.Fatal("expected the affine formula to collide at (7907,0) vs (0,1000003)")
	}
	// The splitmix derivation is collision-free over a large flat range —
	// far beyond the paper's 8,800 episodes per campaign.
	cfg := CampaignConfig{Seed: 1}
	seen := make(map[int64]int, 200_000)
	for i := 0; i < 200_000; i++ {
		s := cfg.EpisodeSeed(i)
		if prev, ok := seen[s]; ok {
			t.Fatalf("episode seeds collide: indices %d and %d both map to %d", prev, i, s)
		}
		seen[s] = i
	}
	// And it keys on the campaign seed.
	if cfg.EpisodeSeed(0) == (CampaignConfig{Seed: 2}).EpisodeSeed(0) {
		t.Fatal("episode seeds must depend on the campaign seed")
	}
}

func TestRunCampaignValidation(t *testing.T) {
	if _, err := RunCampaign(CampaignConfig{Simulator: Simulator(99)}); err == nil {
		t.Fatal("unknown simulator must fail RunCampaign")
	}
	bad := benchScaleCampaign(1)
	bad.Scenarios = sim.ScenarioMix{{Name: "bogus", Weight: 1}}
	if _, err := RunCampaign(bad); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown scenario must fail with its name, got %v", err)
	}
	empty := benchScaleCampaign(1)
	empty.Scenarios = sim.ScenarioMix{{Name: sim.ScenarioNominal, Weight: 0}}
	if _, err := Generate(empty); err == nil {
		t.Fatal("non-positive weight must fail Generate")
	}
	// Negative windowing knobs slip past fill (it only defaults zeros) and
	// must be rejected, not panic or mislabel.
	badWindow := benchScaleCampaign(1)
	badWindow.Window = -3
	if _, err := Generate(badWindow); err == nil {
		t.Fatal("negative window must fail Generate")
	}
	badHorizon := benchScaleCampaign(1)
	badHorizon.Horizon = -1
	if _, err := Generate(badHorizon); err == nil {
		t.Fatal("negative horizon must fail Generate")
	}
	badSize := benchScaleCampaign(1)
	badSize.Profiles = -2
	if _, err := RunCampaign(badSize); err == nil {
		t.Fatal("negative profile count must fail RunCampaign")
	}
}

// TestEpisodeBuildFailureContext pins the error-path contract: an episode
// that cannot be built surfaces the failing profile, episode and scenario.
func TestEpisodeBuildFailureContext(t *testing.T) {
	cfg := CampaignConfig{
		Simulator:          Glucosym,
		Profiles:           21, // profile 20 is out of range
		EpisodesPerProfile: 2,
		Steps:              40,
		Seed:               1,
	}
	_, err := Generate(cfg)
	if err == nil {
		t.Fatal("out-of-range profile must fail")
	}
	if !strings.Contains(err.Error(), "profile 20, ep 0") {
		t.Fatalf("error must carry profile/episode context, got: %v", err)
	}
	if _, err := RunCampaign(cfg); err == nil || !strings.Contains(err.Error(), "profile 20, ep 0") {
		t.Fatalf("RunCampaign must carry the same context, got: %v", err)
	}
}

func TestFingerprintCoversMixNotWorkers(t *testing.T) {
	base := benchScaleCampaign(1)
	other := base
	other.Workers = 8
	if base.Fingerprint() != other.Fingerprint() {
		t.Fatal("Workers must not change the campaign fingerprint")
	}
	reweighted := base
	reweighted.Scenarios = sim.ScenarioMix{
		{Name: sim.ScenarioNominal, Weight: 1},
		{Name: sim.ScenarioRandomFault, Weight: 1},
		{Name: sim.ScenarioSensorDrift, Weight: 2},
	}
	if base.Fingerprint() == reweighted.Fingerprint() {
		t.Fatal("the scenario mix must change the campaign fingerprint")
	}
	// The default mix fingerprints like an explicitly spelled-out default.
	implicit := CampaignConfig{Simulator: Glucosym, Seed: 3}
	explicit := implicit
	explicit.Scenarios = sim.DefaultScenarioMix()
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Fatal("explicit default mix must fingerprint like the omitted one")
	}
}
