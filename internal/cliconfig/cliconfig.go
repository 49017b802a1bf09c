// Package cliconfig owns the flag bundles shared by the aps* CLIs
// (apsim, apstrain, apsattack, apsexperiments, apserve): one place
// registers -seed/-parallel/-precision/-scenarios/-no-mmap and the
// -cache/-no-cache pair (with its APSREPRO_CACHE env default), the campaign-shape knobs
// (-sim/-profiles/-episodes/-steps), and the fleet-sharding pair
// (-shards/-shard) — so a new cross-cutting flag lands on every binary at
// once instead of being copy-pasted five times. Defaults stay per-CLI
// (each binary passes its own), and the registered names and defaults are
// pinned by per-CLI help-text golden tests.
package cliconfig

import (
	"flag"
	"fmt"
	"runtime"

	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/mmapio"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// CommonDefaults selects each CLI's defaults for the common flag bundle.
type CommonDefaults struct {
	// Seed is the -seed default.
	Seed int64
	// SeedUsage overrides the -seed usage string ("" = "seed").
	SeedUsage string
	// Parallel is the -parallel default (0 = all cores).
	Parallel int
	// Precision is the -precision default; "" skips registering the flag
	// (apsim has no inference arithmetic to select).
	Precision monitor.Precision
	// ScenariosUsage overrides the -scenarios usage string ("" = the
	// canonical mix description).
	ScenariosUsage string
}

// Common is the parsed common flag bundle every CLI shares.
type Common struct {
	Seed      int64
	Parallel  int
	Precision monitor.Precision
	Scenarios string
	NoMmap    bool
	Cache     *Cache
}

// AddCommon registers the shared flag bundle on fs with the CLI's defaults
// and returns the bound configuration; read it after fs.Parse.
func AddCommon(fs *flag.FlagSet, d CommonDefaults) *Common {
	c := &Common{Precision: d.Precision}
	seedUsage := d.SeedUsage
	if seedUsage == "" {
		seedUsage = "seed"
	}
	scenariosUsage := d.ScenariosUsage
	if scenariosUsage == "" {
		scenariosUsage = "campaign scenario mix, e.g. 'nominal:1,random_fault:1,sensor_drift:0.5'"
	}
	fs.Int64Var(&c.Seed, "seed", d.Seed, seedUsage)
	fs.IntVar(&c.Parallel, "parallel", d.Parallel,
		"worker goroutines for generation, training, evaluation and matrix products (0 = all cores, 1 = serial)")
	if d.Precision != "" {
		fs.StringVar((*string)(&c.Precision), "precision", string(d.Precision),
			"inference arithmetic: f64 (canonical) or f32 (frozen fast path)")
	}
	fs.StringVar(&c.Scenarios, "scenarios", "", scenariosUsage)
	fs.BoolVar(&c.NoMmap, "no-mmap", false,
		"load cached campaign artifacts by copying instead of mmap (escape hatch for filesystems where mapping misbehaves)")
	c.Cache = AddCache(fs)
	return c
}

// Mix parses the -scenarios flag into a scenario mix (nil = the default
// mix).
func (c *Common) Mix() (sim.ScenarioMix, error) {
	return sim.ParseScenarioMixFlag(c.Scenarios)
}

// Workers resolves -parallel into the effective worker count: 0 means all
// cores, negatives are rejected.
func (c *Common) Workers() (int, error) {
	if c.Parallel < 0 {
		return 0, fmt.Errorf("-parallel %d, want >= 0", c.Parallel)
	}
	if c.Parallel == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return c.Parallel, nil
}

// ApplyBudget resolves -parallel and installs the process-wide execution
// knobs every CLI shares: the worker budget (sweep pool + blocked matrix
// kernels) and the -no-mmap artifact-load switch. Returns the resolved
// worker count. Every CLI calls it once after Parse.
func (c *Common) ApplyBudget() (int, error) {
	n, err := c.Workers()
	if err != nil {
		return 0, err
	}
	sweep.SetBudget(n)
	mmapio.SetDisabled(c.NoMmap)
	return n, nil
}

// OpenStore resolves the -cache/-no-cache pair into an artifact store,
// logging cache events through logf.
func (c *Common) OpenStore(logf func(format string, args ...any)) artifact.Store {
	return c.Cache.Open(logf)
}

// Shape is the parsed campaign-shape bundle (-profiles/-episodes/-steps).
type Shape struct {
	Profiles int
	Episodes int
	Steps    int
}

// AddShape registers the campaign-shape flags with the CLI's defaults
// (apsexperiments passes zeros: its shape flags are overrides on top of
// the -scale preset).
func AddShape(fs *flag.FlagSet, profiles, episodes, steps int) *Shape {
	s := &Shape{}
	fs.IntVar(&s.Profiles, "profiles", profiles, "patient profiles")
	fs.IntVar(&s.Episodes, "episodes", episodes, "episodes per profile")
	fs.IntVar(&s.Steps, "steps", steps, "steps per episode")
	return s
}

// CampaignConfig assembles the dataset campaign the common + shape bundles
// describe. workers is the resolved -parallel count (never part of the
// campaign fingerprint).
func (c *Common) CampaignConfig(simu dataset.Simulator, sh *Shape, workers int) (dataset.CampaignConfig, error) {
	mix, err := c.Mix()
	if err != nil {
		return dataset.CampaignConfig{}, err
	}
	return dataset.CampaignConfig{
		Simulator:          simu,
		Profiles:           sh.Profiles,
		EpisodesPerProfile: sh.Episodes,
		Steps:              sh.Steps,
		Seed:               c.Seed,
		Scenarios:          mix,
		Workers:            workers,
	}, nil
}

// AddSim registers the -sim flag (default glucosym).
func AddSim(fs *flag.FlagSet) *string {
	return fs.String("sim", "glucosym", "simulator: glucosym or t1ds")
}

// ParseSimulator resolves a -sim value.
func ParseSimulator(name string) (dataset.Simulator, error) {
	switch name {
	case "glucosym":
		return dataset.Glucosym, nil
	case "t1ds":
		return dataset.T1DS, nil
	default:
		return 0, fmt.Errorf("unknown simulator %q", name)
	}
}

// AddArch registers the -arch flag (default mlp).
func AddArch(fs *flag.FlagSet) *string {
	return fs.String("arch", "mlp", "architecture: mlp or lstm")
}

// ParseArch resolves an -arch value.
func ParseArch(name string) (monitor.Arch, error) {
	switch name {
	case "mlp":
		return monitor.ArchMLP, nil
	case "lstm":
		return monitor.ArchLSTM, nil
	default:
		return 0, fmt.Errorf("unknown architecture %q", name)
	}
}

// AddEpochs registers the -epochs flag with the CLI's default.
func AddEpochs(fs *flag.FlagSet, def int) *int {
	return fs.Int("epochs", def, "training epochs")
}

// Shards is the parsed fleet-sharding bundle (-shards/-shard): campaigns
// and report evaluations split into Count disjoint episode-range shards,
// with Index selecting the one this process works on.
type Shards struct {
	// Count is -shards: the total number of shards (0 = unsharded).
	Count int
	// Index is -shard: this process's shard (-1 = all shards in-process).
	Index int
}

// AddShards registers the -shards/-shard pair.
func AddShards(fs *flag.FlagSet) *Shards {
	s := &Shards{}
	fs.IntVar(&s.Count, "shards", 0,
		"split the campaign into N disjoint episode-range shards (0 = unsharded)")
	fs.IntVar(&s.Index, "shard", -1,
		"process only this shard index (requires -shards; default: all shards, merged)")
	return s
}

// Enabled reports whether sharding was requested.
func (s *Shards) Enabled() bool { return s.Count != 0 }

// Validate checks the pair's consistency after Parse.
func (s *Shards) Validate() error {
	if s.Count < 0 {
		return fmt.Errorf("-shards %d, want >= 0", s.Count)
	}
	if s.Count == 0 {
		if s.Index >= 0 {
			return fmt.Errorf("-shard %d requires -shards", s.Index)
		}
		return nil
	}
	if s.Index < -1 || s.Index >= s.Count {
		return fmt.Errorf("-shard %d out of [0, %d)", s.Index, s.Count)
	}
	return nil
}
