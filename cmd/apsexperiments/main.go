// Command apsexperiments regenerates the paper's tables and figures.
//
// Usage:
//
//	apsexperiments [-exp table3|fig1b|fig2|...|all] [-scale bench|default|paper]
//	               [-profiles N] [-episodes N] [-steps N] [-epochs N] [-seed N]
//	               [-scenarios MIX] [-parallel N] [-precision f64|f32]
//	               [-cache DIR] [-no-cache]
//	apsexperiments -report [-out report.json] [-shards N [-shard I]] [same flags]
//	apsexperiments -merge-reports [-out report.json] shard1.json shard2.json ...
//	apsexperiments -cache-prune [-cache DIR]
//
// -report renders the unified evaluation report instead of the figure
// experiments: per-scenario and per-fault-type F1 + detection-latency rows
// for every monitor on both simulators, evaluated episode-parallel and
// served from the report artifact cache on warm runs (a warm -report run
// performs zero monitor inferences). -out additionally writes the full
// report set as JSON (and implies -report). In report mode stdout carries
// only the report, so the output diffs clean across -parallel settings;
// status goes to stderr.
//
// Fleet mode: -report -shards N -shard I evaluates only shard I of the
// campaign's N-way episode-range split, caching each per-shard report under
// its shard sub-fingerprint — N processes sharing one -cache each score
// only their slice, and a changed shard config re-evaluates only that
// shard. -shards N without -shard evaluates every shard in-process and
// merges. -merge-reports folds eval.Report.Merge over per-shard report-set
// JSON files (the -out payloads of the shard runs, in shard order) and
// renders + writes the merged set; merged output is byte-identical to the
// unsharded -report run.
//
// -scenarios overrides the campaign scenario mix ("name[:weight],…" over the
// sim.Scenarios registry, default "nominal:1,random_fault:1"); each
// profile's episodes are apportioned across the named generators in weight
// proportion, deterministically.
//
// -parallel sets how many goroutines the experiment sweeps and large matrix
// products fan out to (default: all cores), and doubles as the shared worker
// budget that keeps the two layers from multiplying. Output is byte-identical
// for any worker count: per-cell RNG seeds derive from the config seed and
// the cell index, never from scheduling.
//
// -precision f32 routes monitor inference through the frozen float32 engine
// (training stays f64). Unlike -parallel it may change results — by float32
// rounding — so f32 reports are cached under distinct keys; at a fixed
// precision, output remains byte-identical across -parallel settings.
//
// Generated campaigns, trained monitors and the Fig 10 black-box
// substitutes are cached content-addressed under -cache (default
// $APSREPRO_CACHE or ~/.cache/apsrepro), so a second run with an identical
// configuration skips all simulation and training and produces
// byte-identical output. Cache events are logged to stderr; stdout
// carries only the experiment artifacts. -no-cache disables persistence.
// Format-version bumps orphan old cache entries; -cache-prune deletes every
// entry stored under a stale version, reports the bytes reclaimed, and exits.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/artifact"
	"repro/internal/attack"
	"repro/internal/cliconfig"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/stl"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "apsexperiments:", err)
		os.Exit(1)
	}
}

// appFlags is apsexperiments' full flag surface, registered by addFlags so
// the help golden test can render it.
type appFlags struct {
	common *cliconfig.Common
	shape  *cliconfig.Shape
	epochs *int
	shards *cliconfig.Shards

	exp          *string
	report       *bool
	mergeReports *bool
	cachePrune   *bool
	out          *string
	scale        *string
	weight       *float64
}

func addFlags(fs *flag.FlagSet) *appFlags {
	f := &appFlags{
		common: cliconfig.AddCommon(fs, cliconfig.CommonDefaults{
			Seed:           0,
			SeedUsage:      "override: campaign/training seed",
			Parallel:       runtime.GOMAXPROCS(0),
			Precision:      monitor.F64,
			ScenariosUsage: "override: campaign scenario mix, e.g. 'nominal:1,random_fault:1,sensor_drift:0.5' (see README)",
		}),
		shape:  cliconfig.AddShape(fs, 0, 0, 0),
		epochs: cliconfig.AddEpochs(fs, 0),
		shards: cliconfig.AddShards(fs),
	}
	f.exp = fs.String("exp", "all", "experiment id (table3, fig1b, fig2..fig10) or 'all'")
	f.report = fs.Bool("report", false, "render the per-scenario evaluation report instead of the figure experiments")
	f.mergeReports = fs.Bool("merge-reports", false, "merge per-shard report-set JSON files (positional args, in shard order) into one report")
	f.cachePrune = fs.Bool("cache-prune", false, "delete cache entries stored under stale format versions, report bytes reclaimed, and exit")
	f.out = fs.String("out", "", "write the JSON report set here (implies -report)")
	f.scale = fs.String("scale", "default", "preset: bench, default, or paper")
	f.weight = fs.Float64("semantic-weight", 0, "override: semantic loss weight w")
	return f
}

func run() error {
	f := addFlags(flag.CommandLine)
	flag.Parse()

	parallel, err := f.common.ApplyBudget()
	if err != nil {
		return err
	}
	if err := experiments.Configure(parallel, f.common.Precision); err != nil {
		return err
	}
	if err := f.shards.Validate(); err != nil {
		return err
	}
	if *f.out != "" {
		*f.report = true // -out has no meaning without the report surface
	}
	expSet := false
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == "exp" {
			expSet = true
		}
	})
	if *f.cachePrune {
		return runCachePrune(f.common.Cache)
	}
	if *f.mergeReports {
		if expSet || f.shards.Enabled() {
			return fmt.Errorf("-merge-reports takes only per-shard report files (not -exp or -shards)")
		}
		return runMergeReports(flag.Args(), *f.out)
	}
	if *f.report && expSet {
		return fmt.Errorf("-exp selects figure experiments and cannot be combined with -report/-out")
	}
	if f.shards.Enabled() && !*f.report {
		return fmt.Errorf("-shards requires -report (shard the report evaluation) or -merge-reports")
	}
	experiments.SetStore(f.common.OpenStore(log.Printf))

	var cfg experiments.Config
	switch *f.scale {
	case "bench":
		cfg = experiments.Bench()
	case "default":
		cfg = experiments.Default()
	case "paper":
		cfg = experiments.Paper()
	default:
		return fmt.Errorf("unknown scale %q", *f.scale)
	}
	if f.shape.Profiles > 0 {
		cfg.Profiles = f.shape.Profiles
	}
	if f.shape.Episodes > 0 {
		cfg.EpisodesPerProfile = f.shape.Episodes
	}
	if f.shape.Steps > 0 {
		cfg.Steps = f.shape.Steps
	}
	if *f.epochs > 0 {
		cfg.Epochs = *f.epochs
	}
	if f.common.Seed != 0 {
		cfg.Seed = f.common.Seed
	}
	if *f.weight > 0 {
		cfg.SemanticWeight = *f.weight
	}
	mix, err := f.common.Mix()
	if err != nil {
		return err
	}
	cfg.Scenarios = mix

	status := os.Stdout
	if *f.report {
		// Report mode keeps stdout byte-identical across -parallel settings
		// and warm/cold runs: only the report itself goes there.
		status = os.Stderr
	}
	fmt.Fprintf(status, "generating campaigns (%s, parallel=%d)...\n", cfg, parallel)
	t0 := time.Now()
	assets, err := experiments.Shared(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(status, "datasets ready in %v (monitors train lazily on first use)\n\n", time.Since(t0).Round(time.Millisecond))

	if *f.report {
		var res *experiments.ReportsResult
		switch {
		case f.shards.Enabled() && f.shards.Index >= 0:
			fmt.Fprintf(status, "evaluating shard %d/%d\n", f.shards.Index, f.shards.Count)
			res, err = experiments.ShardReports(assets, f.shards.Count, f.shards.Index)
		case f.shards.Enabled():
			res, err = experiments.MergedShardReports(assets, f.shards.Count)
		default:
			res, err = experiments.Reports(assets)
		}
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		if *f.out != "" {
			file, err := os.Create(*f.out)
			if err != nil {
				return err
			}
			defer file.Close()
			if err := res.Set.Save(file); err != nil {
				return err
			}
			fmt.Fprintf(status, "report set written to %s\n", *f.out)
		}
		return nil
	}

	ids := []string{*f.exp}
	if *f.exp == "all" {
		ids = experiments.ExperimentIDs()
	}
	for _, id := range ids {
		t1 := time.Now()
		if err := experiments.Run(id, assets, os.Stdout); err != nil {
			return err
		}
		fmt.Printf("[%s done in %v]\n\n", id, time.Since(t1).Round(time.Millisecond))
	}
	return nil
}

// runCachePrune walks every artifact kind the toolchain persists and
// deletes entries stored under format versions other than the one this
// build reads, plus legacy .art entries and abandoned staging files. Version
// bumps orphan old entries (their keys become unreachable), so a long-lived
// -cache root accumulates dead bytes — notably v3 JSON campaigns after the
// v4 columnar migration.
func runCachePrune(cache *cliconfig.Cache) error {
	if cache.Disabled || cache.Root == "" {
		return fmt.Errorf("-cache-prune needs a disk cache (not -no-cache)")
	}
	disk, err := artifact.NewDisk(cache.Root)
	if err != nil {
		return err
	}
	disk.Logf = log.Printf
	kinds := []struct {
		kind    string
		version int
	}{
		{"campaign", dataset.FormatVersion},
		{"campaignshard", dataset.FormatVersion},
		{"monitor", monitor.FormatVersion},
		{"substitute", attack.SubstituteFormatVersion},
		{"evalreport", eval.FormatVersion},
		{"stlsummary", stl.SummaryFormatVersion},
	}
	var totalBytes int64
	var totalEntries int
	for _, k := range kinds {
		reclaimed, entries, err := disk.Prune(k.kind, k.version)
		totalBytes += reclaimed
		totalEntries += entries
		if err != nil {
			return err
		}
	}
	fmt.Printf("cache %s: pruned %d stale entries, %d bytes reclaimed\n",
		disk.Root(), totalEntries, totalBytes)
	return nil
}

// runMergeReports folds the per-shard report sets (JSON files written by
// `-report -shards N -shard I -out ...`, passed in shard order) into the
// merged set, rendering it to stdout exactly like an unsharded -report run
// and writing the merged JSON when -out is given.
func runMergeReports(paths []string, out string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-merge-reports needs at least one per-shard report JSON file")
	}
	sets := make([]*eval.Set, len(paths))
	for i, path := range paths {
		file, err := os.Open(path)
		if err != nil {
			return err
		}
		sets[i], err = eval.LoadSet(file)
		file.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	merged, err := eval.MergeSets(sets)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderReportSet(merged))
	if out != "" {
		file, err := os.Create(out)
		if err != nil {
			return err
		}
		defer file.Close()
		if err := merged.Save(file); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report set written to %s\n", out)
	}
	return nil
}
