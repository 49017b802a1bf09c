package main

import (
	"flag"
	"io"
	"testing"

	"repro/internal/cliconfig"
	"repro/internal/sim"
)

// TestHelpGolden pins apsim's full flag surface — names, defaults, and
// usage text, shared bundles included — against the checked-in golden.
// Refresh with APSREPRO_UPDATE_GOLDENS=1 go test ./cmd/...
func TestHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("apsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	addFlags(fs)
	cliconfig.CheckHelpGolden(t, fs, "testdata/help.golden")
}

// TestLegacyFaultyFlagMapsToRandomFault pins the -fault alias: alone it
// builds a random_fault episode with a fault injected, an explicit
// -scenario wins over it, and without either the episode is nominal.
func TestLegacyFaultyFlagMapsToRandomFault(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		fault    bool
		want     string
	}{
		{"", true, sim.ScenarioRandomFault},
		{"", false, sim.ScenarioNominal},
		{sim.ScenarioNominal, true, sim.ScenarioNominal},
	} {
		cfg, err := sim.BuildGlucosymEpisode(sim.EpisodeConfig{
			ProfileID: 0, Seed: 3, Scenario: episodeScenario(tc.scenario, tc.fault),
		}, 80)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Scenario != tc.want || (cfg.Fault != nil) != (tc.want == sim.ScenarioRandomFault) {
			t.Fatalf("-scenario %q -fault=%v resolved to %q (fault %v), want %q",
				tc.scenario, tc.fault, cfg.Scenario, cfg.Fault, tc.want)
		}
	}
}
