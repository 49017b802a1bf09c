package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

// minPasses is the fewest timed passes an offline run makes, however short
// its measurement window, so that it always has a median.
const minPasses = 3

// benchConfig is the offline workloads' experiment size: the bench preset,
// seeded from the benchmark's seed.
func benchConfig(seed int64) experiments.Config {
	cfg := experiments.Bench()
	cfg.Seed = seed
	return cfg
}

// pipeline is one offline workload's pass: it runs the experiments under
// parent (a span id; 0 when untraced) and returns the bytes the output
// check compares.
type pipeline func(cfg experiments.Config, tr *tracer, parent int) ([]byte, error)

// coldPass builds fresh assets (simulating and windowing both campaigns),
// trains and evaluates every monitor through Table III and the report set,
// persisting everything into the active store, and returns the rendered
// Table III plus the report set's saved bytes.
func coldPass(cfg experiments.Config, tr *tracer, parent int) ([]byte, error) {
	var (
		a   *experiments.Assets
		t3  *experiments.Table3Result
		rep *experiments.ReportsResult
		out bytes.Buffer
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"experiments.build", func() (err error) { a, err = experiments.Build(cfg); return err }},
		{"experiments.table3", func() (err error) { t3, err = experiments.Table3(a); return err }},
		{"experiments.report", func() (err error) { rep, err = experiments.Reports(a); return err }},
		{"experiments.render", func() error {
			out.WriteString(t3.Render())
			return rep.Set.Save(&out)
		}},
	}
	for _, st := range steps {
		if err := tr.do(parent, st.name, st.fn); err != nil {
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	return out.Bytes(), nil
}

// attackPass builds fresh assets from the active store and runs the paper's
// robustness sweeps: Gaussian noise (Fig 5, Fig 9 left), white-box FGSM
// (Fig 8, Fig 9 right), black-box transfer (Fig 10) and CUSUM evasion. It
// returns every rendered figure.
func attackPass(cfg experiments.Config, tr *tracer, parent int) ([]byte, error) {
	var a *experiments.Assets
	if err := tr.do(parent, "experiments.build", func() (err error) { a, err = experiments.Build(cfg); return err }); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	figs := []struct {
		name string
		fn   func(*experiments.Assets) (experiments.Renderer, error)
	}{
		{"experiments.fig5", func(a *experiments.Assets) (experiments.Renderer, error) { return experiments.Fig5(a) }},
		{"experiments.fig8", func(a *experiments.Assets) (experiments.Renderer, error) { return experiments.Fig8(a) }},
		{"experiments.fig9", func(a *experiments.Assets) (experiments.Renderer, error) { return experiments.Fig9Both(a) }},
		{"experiments.fig10", func(a *experiments.Assets) (experiments.Renderer, error) { return experiments.Fig10(a) }},
		{"experiments.evasion", func(a *experiments.Assets) (experiments.Renderer, error) { return experiments.Evasion(a) }},
	}
	results := make([]experiments.Renderer, len(figs))
	for i, f := range figs {
		err := tr.do(parent, f.name, func() (err error) { results[i], err = f.fn(a); return err })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
	}
	var out bytes.Buffer
	_ = tr.do(parent, "experiments.render", func() error {
		for _, r := range results {
			out.WriteString(r.Render())
			out.WriteByte('\n')
		}
		return nil
	})
	return out.Bytes(), nil
}

// passStats accumulates one offline run's per-pass measurements.
type passStats struct {
	wall, traced        []float64 // seconds, untraced and traced passes
	allocMB, gcs, pause []float64
	storeS, loadMS      []float64
	hits, misses, bytes []float64
}

// timePass runs one pass, checks its output against want, and records its
// measurements. A pipeline error or an output mismatch counts as one failed
// operation; on a warm store, so does any store miss.
func (ps *passStats) timePass(res *result, p pipeline, cfg experiments.Config, want []byte, s *meteredStore, warm bool, tr *tracer) {
	before := s.counters()
	mem := startMem()
	id := tr.begin(0, "pass")
	start := time.Now()
	got, err := p(cfg, tr, id)
	d := time.Since(start)
	tr.end(id)
	alloc, gcs, pause := mem.stop()
	after := s.counters()

	res.attempted++
	misses := after.misses - before.misses
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "e2ebench: pass failed: %v\n", err)
		res.failed++
		return
	case !bytes.Equal(got, want):
		fmt.Fprintf(os.Stderr, "e2ebench: pass output differs from the reference (%d vs %d bytes)\n", len(got), len(want))
		res.failed++
	case warm && misses > 0:
		fmt.Fprintf(os.Stderr, "e2ebench: warm pass missed the store %d times\n", misses)
		res.failed++
	}
	if tr != nil {
		ps.traced = append(ps.traced, d.Seconds())
	} else {
		ps.wall = append(ps.wall, d.Seconds())
	}
	ps.allocMB = append(ps.allocMB, alloc)
	ps.gcs = append(ps.gcs, gcs)
	ps.pause = append(ps.pause, pause)
	ps.storeS = append(ps.storeS, (after.store - before.store).Seconds())
	ps.loadMS = append(ps.loadMS, millis(after.load-before.load))
	ps.hits = append(ps.hits, float64(after.hits-before.hits))
	ps.misses = append(ps.misses, float64(misses))
	ps.bytes = append(ps.bytes, float64(s.bytes()))
}

// endToEnd fills the untraced metrics of an offline run.
func (ps *passStats) endToEnd(res *result, setup time.Duration) {
	res.metrics["setup_s"] = setup.Seconds()
	res.metrics["run_s"] = median(ps.wall)
	res.metrics["peak_rss_mb"] = peakRSSMB()
	res.metrics["p50_ms"] = 1000 * median(ps.wall)
	res.phases = append(res.phases, fmt.Sprintf("passes: %d timed, %d failed", len(ps.wall), res.failed))
}

// perLayer fills the per-layer metrics a traced offline run takes from its
// passes; probes add the rest.
func (ps *passStats) perLayer(res *result, tr *tracer) {
	m := res.metrics
	for _, name := range []string{"build", "table3", "report", "fig5", "fig8", "fig9", "fig10", "evasion"} {
		m["experiments."+name+"_s"] = tr.medianOf("experiments."+name, seconds)
	}
	m["experiments.render_ms"] = tr.medianOf("experiments.render", millis)
	m["artifact.store_s"] = median(ps.storeS)
	m["artifact.store_bytes"] = median(ps.bytes)
	m["artifact.load_ms"] = median(ps.loadMS)
	m["artifact.hits"] = median(ps.hits)
	m["artifact.misses"] = median(ps.misses)
	m["runtime.alloc_mb"] = median(ps.allocMB)
	m["runtime.gc_cycles"] = median(ps.gcs)
	m["runtime.gc_pause_ms"] = median(ps.pause)
	if u := median(ps.wall); u > 0 {
		m["trace.overhead_ratio"] = median(ps.traced) / u
	}
	m["trace.coverage_ratio"] = tr.coverage("pass")
	res.phases = append(res.phases, fmt.Sprintf("passes: %d untraced, %d traced, %d failed", len(ps.wall), len(ps.traced), res.failed))
}

// measurePasses runs passes until the window closes (at least minPasses),
// each inside withPassStore, which provides the store the pass runs
// against. In a traced run passes alternate between untraced and traced,
// so the ratio of their medians is the tracing overhead.
func measurePasses(ctx context.Context, o options, res *result, p pipeline, cfg experiments.Config, want []byte, tr *tracer, warm bool, withPassStore func(func(*meteredStore) error) error) (*passStats, error) {
	ps := &passStats{}
	end := deadline(o)
	for i := 0; i < minPasses || time.Now().Before(end); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var ptr *tracer
		if o.trace && i%2 == 1 {
			ptr = tr
		}
		if err := withPassStore(func(s *meteredStore) error {
			ps.timePass(res, p, cfg, want, s, warm, ptr)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// runColdTrain measures cold-train. Set-up is one reference pass at one
// worker into its own empty store: it yields the bytes every timed pass
// must reproduce (output is byte-identical at every worker count) and
// warms the process. Each timed pass starts from a new empty store.
func runColdTrain(ctx context.Context, o options) (*result, error) {
	cfg := benchConfig(o.seed)
	res := &result{metrics: map[string]float64{}}
	var tr *tracer
	if o.trace {
		tr = newTracer("cold-train", o.seed)
	}
	t0 := time.Now()
	var want []byte
	if err := withStore(o.dir, 1, func(*meteredStore) (err error) {
		want, err = coldPass(cfg, nil, 0)
		return err
	}); err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	setup := time.Since(t0)

	ps, err := measurePasses(ctx, o, res, coldPass, cfg, want, tr, false, func(fn func(*meteredStore) error) error {
		return withStore(o.dir, o.workers, fn)
	})
	if err != nil {
		return nil, err
	}
	if !o.trace {
		ps.endToEnd(res, setup)
		return res, nil
	}
	ps.perLayer(res, tr)
	if err := withStore(o.dir, o.workers, func(*meteredStore) error { return coldProbes(cfg, tr, res.metrics, o.workers) }); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return res, writeTrace(tr, o, res)
}

// runWarmAttack measures warm-attack. Set-up fills one store with a cold
// pass of the same sweeps, whose rendered figures every warm pass must
// reproduce. Each timed pass builds fresh assets from that store: mmapped
// campaigns and loaded monitors, so any store miss is a failure.
func runWarmAttack(ctx context.Context, o options) (*result, error) {
	cfg := benchConfig(o.seed)
	res := &result{metrics: map[string]float64{}}
	var tr *tracer
	if o.trace {
		tr = newTracer("warm-attack", o.seed)
	}
	var setup time.Duration
	err := withStore(o.dir, o.workers, func(s *meteredStore) error {
		t0 := time.Now()
		want, err := attackPass(cfg, nil, 0)
		if err != nil {
			return fmt.Errorf("fill pass: %w", err)
		}
		setup = time.Since(t0)
		ps, err := measurePasses(ctx, o, res, attackPass, cfg, want, tr, true, func(fn func(*meteredStore) error) error {
			return fn(s)
		})
		if err != nil {
			return err
		}
		if !o.trace {
			ps.endToEnd(res, setup)
			return nil
		}
		ps.perLayer(res, tr)
		return attackProbes(cfg, tr, res.metrics, o.workers)
	})
	if err != nil {
		return nil, err
	}
	return res, writeTrace(tr, o, res)
}

// writeTrace writes the run's spans under the scratch directory.
func writeTrace(tr *tracer, o options, res *result) error {
	path, err := tr.write(o.dir)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if path != "" {
		res.phases = append(res.phases, "trace: "+path)
	}
	return nil
}
