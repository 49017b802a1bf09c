// Command apsim runs closed-loop APS simulation: a single annotated episode
// (the raw material behind Fig. 1(b)) or, with -campaign, a whole labeled
// campaign in the columnar binary encoding.
//
// Usage:
//
//	apsim [-sim glucosym|t1ds] [-profile N] [-steps N] [-seed N]
//	      [-scenario NAME] [-fault] [-csv]
//	      [-cache DIR] [-no-cache]
//
//	apsim -campaign [-sim glucosym|t1ds] [-profiles N] [-episodes N]
//	      [-steps N] [-seed N] [-scenarios MIX] [-parallel N] [-out FILE]
//	      [-shards N [-shard I]]
//
// Single-episode mode: -scenario applies one named generator from the
// sim.Scenarios registry (nominal, overdose, underdose, suspend, stuck,
// max_rate, random_fault, sensor_dropout, sensor_drift, missed_meal,
// irregular_meals, compound); -fault is the legacy alias for
// -scenario random_fault.
//
// Campaign mode: -scenarios declares the campaign mix ("name[:weight],…");
// episodes fan out across -parallel goroutines and the serialized campaign
// bytes are identical at every -parallel setting (the CI determinism smoke
// diffs -parallel 1 against -parallel 8).
//
// Fleet mode: -shards N splits the campaign into N disjoint episode-range
// shards. With -shard I only that shard is generated (cached under its
// shard sub-fingerprint, so N processes sharing one -cache each simulate
// only their slice); without -shard all shards are generated (or served
// from the cache) and merged — byte-identical to the monolithic campaign.
//
// Campaigns are content-addressed: a campaign (or shard) with a config
// already in the -cache store loads its columnar artifact zero-copy (mmap
// feature-column views; -no-mmap copies instead) and simulates nothing.
// -no-cache always simulates. The campaign is written to stdout or -out in
// the columnar encoding (dataset.EncodeColumnar) — the payload of a cached
// campaign entry — byte-identical whether the dataset was simulated or
// loaded from a cached artifact.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cliconfig"
	"repro/internal/dataset"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "apsim:", err)
		os.Exit(1)
	}
}

// appFlags is apsim's full flag surface; addFlags registers it on any
// FlagSet so the help golden test can render it without touching global
// state.
type appFlags struct {
	common *cliconfig.Common
	simu   *string
	shape  *cliconfig.Shape
	shards *cliconfig.Shards

	profile  *int
	scenario *string
	fault    *bool
	csv      *bool
	campaign *bool
	out      *string
}

func addFlags(fs *flag.FlagSet) *appFlags {
	f := &appFlags{
		common: cliconfig.AddCommon(fs, cliconfig.CommonDefaults{
			Seed:      1,
			SeedUsage: "episode/campaign seed",
		}),
		simu:   cliconfig.AddSim(fs),
		shape:  cliconfig.AddShape(fs, 4, 2, 200),
		shards: cliconfig.AddShards(fs),
	}
	f.profile = fs.Int("profile", 0, "patient profile id (0-19)")
	f.scenario = fs.String("scenario", "", "episode scenario name (see sim.Scenarios; default nominal)")
	f.fault = fs.Bool("fault", false, "legacy alias for -scenario random_fault")
	f.csv = fs.Bool("csv", false, "emit CSV instead of a table")
	f.campaign = fs.Bool("campaign", false, "generate a labeled campaign instead of one episode")
	f.out = fs.String("out", "", "campaign: write the serialized dataset here (default stdout)")
	return f
}

func run() error {
	f := addFlags(flag.CommandLine)
	flag.Parse()

	simu, err := cliconfig.ParseSimulator(*f.simu)
	if err != nil {
		return err
	}
	if err := f.shards.Validate(); err != nil {
		return err
	}
	if *f.campaign {
		return runCampaign(f, simu)
	}
	if f.shards.Enabled() {
		return fmt.Errorf("-shards only applies to -campaign mode")
	}
	return runEpisode(simu, *f.profile, f.shape.Steps, f.common.Seed, episodeScenario(*f.scenario, *f.fault), *f.csv)
}

// episodeScenario resolves -scenario and its legacy alias -fault: -fault
// selects random_fault when -scenario is empty, and is ignored otherwise.
func episodeScenario(scenario string, fault bool) string {
	if scenario == "" && fault {
		return sim.ScenarioRandomFault
	}
	return scenario
}

func runCampaign(f *appFlags, simu dataset.Simulator) error {
	workers, err := f.common.ApplyBudget()
	if err != nil {
		return err
	}
	cfg, err := f.common.CampaignConfig(simu, f.shape, workers)
	if err != nil {
		return err
	}
	var ds *dataset.Dataset
	switch {
	case f.shards.Enabled() && f.shards.Index >= 0:
		sc, err := cfg.ShardAt(f.shards.Count, f.shards.Index)
		if err != nil {
			return err
		}
		ds, _, err = dataset.CachedShard(f.common.OpenStore(log.Printf), sc)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "apsim: shard %d/%d covers episodes [%d,%d) of campaign %v\n",
			sc.Index, sc.Count, sc.From, sc.To, simu)
	case f.shards.Enabled():
		shards, err := cfg.Shard(f.shards.Count)
		if err != nil {
			return err
		}
		store := f.common.OpenStore(log.Printf)
		parts := make([]*dataset.Dataset, len(shards))
		for i, sc := range shards {
			parts[i], _, err = dataset.CachedShard(store, sc)
			if err != nil {
				return err
			}
		}
		ds, err = dataset.MergeCampaigns(parts)
		if err != nil {
			return err
		}
	default:
		ds, _, err = dataset.CachedColumnar(f.common.OpenStore(log.Printf), cfg.ArtifactKey(),
			func() (*dataset.Dataset, error) { return dataset.Generate(cfg) }, true)
		if err != nil {
			return err
		}
	}
	w := os.Stdout
	if *f.out != "" {
		file, err := os.Create(*f.out)
		if err != nil {
			return err
		}
		defer file.Close()
		w = file
	}
	if err := ds.EncodeColumnar(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "apsim: campaign %v: %d episodes, %d samples (%.1f%% unsafe)\n",
		simu, len(ds.EpisodeIndex), ds.Len(), 100*ds.UnsafeFraction())
	return nil
}

func runEpisode(simu dataset.Simulator, profile, steps int, seed int64, scenario string, csv bool) error {
	ec := sim.EpisodeConfig{ProfileID: profile, Seed: seed, Scenario: scenario}
	var (
		cfg sim.Config
		err error
	)
	switch simu {
	case dataset.Glucosym:
		cfg, err = sim.BuildGlucosymEpisode(ec, steps)
	case dataset.T1DS:
		cfg, err = sim.BuildT1DSEpisode(ec, steps)
	}
	if err != nil {
		return err
	}
	tr, err := sim.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Printf("# scenario: %s\n", cfg.Scenario)
	if cfg.Fault != nil {
		fmt.Printf("# fault: %s start=%d duration=%d magnitude=%.2f\n",
			cfg.Fault.Type, cfg.Fault.StartStep, cfg.Fault.Duration, cfg.Fault.Magnitude)
	}
	if csv {
		fmt.Println("step,time_min,true_bg,cgm,iob,rate,commanded,action,fault,hazard")
		for _, r := range tr.Records {
			fmt.Printf("%d,%.0f,%.2f,%.2f,%.3f,%.3f,%.3f,%s,%v,%v\n",
				r.Step, r.TimeMin, r.TrueBG, r.CGM, r.IOB, r.Rate, r.Commanded, r.Action, r.FaultActive, r.Hazard)
		}
		return nil
	}
	fmt.Printf("%-5s %-7s %-8s %-8s %-7s %-6s %-18s %-5s\n", "step", "t(min)", "BG", "CGM", "IOB", "rate", "action", "hazard")
	for i, r := range tr.Records {
		if i%4 != 0 {
			continue
		}
		hz := ""
		if r.Hazard {
			hz = "*"
		}
		fmt.Printf("%-5d %-7.0f %-8.2f %-8.2f %-7.2f %-6.2f %-18s %-5s\n",
			r.Step, r.TimeMin, r.TrueBG, r.CGM, r.IOB, r.Rate, r.Action, hz)
	}
	fmt.Printf("# hazards: %d/%d steps\n", len(tr.HazardSteps()), len(tr.Records))
	return nil
}
