package experiments

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// kindCountingStore wraps a Store and counts lookups per artifact kind — the instrument that proves a warm report run never even consults
// the monitor tier.
type kindCountingStore struct {
	inner artifact.Store
	mu    sync.Mutex
	calls map[string]int
	hits  map[string]int
}

func newKindCountingStore(inner artifact.Store) *kindCountingStore {
	return &kindCountingStore{inner: inner, calls: map[string]int{}, hits: map[string]int{}}
}

func (s *kindCountingStore) GetOrCreateFile(key artifact.Key, load func(string, int64) error, create func() error, encode func(io.Writer) error) (bool, error) {
	hit, err := s.inner.GetOrCreateFile(key, load, create, encode)
	s.mu.Lock()
	s.calls[key.Kind]++
	if hit {
		s.hits[key.Kind]++
	}
	s.mu.Unlock()
	return hit, err
}

func (s *kindCountingStore) counts(kind string) (calls, hits int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[kind], s.hits[kind]
}

func (s *kindCountingStore) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = map[string]int{}
	s.hits = map[string]int{}
}

// reportConfig is the tiny config the report tests share; the seed keeps its
// cache entries disjoint from the other cache tests'.
func reportConfig() Config {
	cfg := tinyCacheConfig()
	cfg.Seed = 123
	cfg.Scenarios = sim.ScenarioMix{
		{Name: sim.ScenarioNominal, Weight: 1},
		{Name: sim.ScenarioRandomFault, Weight: 1},
	}
	return cfg
}

// renderReports builds fresh assets (bypassing the process-level Shared
// cache) and renders the full report surface.
func renderReports(t *testing.T, cfg Config) string {
	t.Helper()
	a, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res, err := Reports(a)
	if err != nil {
		t.Fatalf("Reports: %v", err)
	}
	return res.Render()
}

// TestReportsWarmRunServesFromStoreWithZeroMonitorWork is the PR's
// acceptance criterion: a second -report run with an identical config must
// serve every report from the artifact store — zero campaign generations,
// zero trainings, and zero monitor-tier lookups (hence zero monitor
// inferences) — and render byte-identical output.
func TestReportsWarmRunServesFromStoreWithZeroMonitorWork(t *testing.T) {
	disk, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := newKindCountingStore(disk)
	SetStore(store)
	defer SetStore(nil)
	cfg := reportConfig()

	gen, train, restore := countWork()
	defer restore()

	cold := renderReports(t, cfg)
	if g, tr := gen.Load(), train.Load(); g != 2 || tr != 8 {
		t.Fatalf("cold run did %d generations and %d trainings, want 2 and 8", g, tr)
	}
	if calls, _ := store.counts("evalreport"); calls != 10 {
		t.Fatalf("cold run made %d report lookups, want 10 (5 monitors × 2 simulators)", calls)
	}

	gen.Store(0)
	train.Store(0)
	store.reset()
	warm := renderReports(t, cfg)
	if g, tr := gen.Load(), train.Load(); g != 0 || tr != 0 {
		t.Fatalf("warm run did %d generations and %d trainings, want 0 and 0", g, tr)
	}
	if calls, hits := store.counts("evalreport"); calls != 10 || hits != 10 {
		t.Fatalf("warm run report lookups = %d (%d hits), want 10 hits", calls, hits)
	}
	if calls, _ := store.counts("monitor"); calls != 0 {
		t.Fatalf("warm report run consulted the monitor tier %d times, want 0 (no inference)", calls)
	}
	if warm != cold {
		t.Fatalf("warm report differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}

	// A different tolerance must miss the report cache (content addressing)
	// while still hitting campaigns and monitors.
	gen.Store(0)
	train.Store(0)
	store.reset()
	cfg2 := cfg
	cfg2.ToleranceDelta = 6
	_ = renderReports(t, cfg2)
	if g, tr := gen.Load(), train.Load(); g != 0 || tr != 0 {
		t.Fatalf("tolerance change regenerated upstream artifacts: %d generations, %d trainings", g, tr)
	}
	if _, hits := store.counts("evalreport"); hits != 0 {
		t.Fatal("changed tolerance reused cached reports")
	}
	if _, hits := store.counts("monitor"); hits != 8 {
		t.Fatal("changed tolerance should re-evaluate from cached monitors")
	}
}

// TestReportsDeterministicAcrossWorkers mirrors the CI report-determinism
// smoke in-process: the rendered report and its JSON serialization must be
// byte-identical at every worker setting.
func TestReportsDeterministicAcrossWorkers(t *testing.T) {
	cfg := reportConfig()
	cfg.Seed = 124 // fresh assets either way; keep cache-test entries disjoint
	defer func(prev monitor.Precision) { _ = Configure(0, prev) }(Precision())

	render := func(workers int) (string, []byte) {
		if err := Configure(workers, Precision()); err != nil {
			t.Fatalf("Configure: %v", err)
		}
		a, err := Build(cfg)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		res, err := Reports(a)
		if err != nil {
			t.Fatalf("Reports: %v", err)
		}
		var b bytes.Buffer
		if err := res.Set.Save(&b); err != nil {
			t.Fatal(err)
		}
		return res.Render(), b.Bytes()
	}

	serialText, serialJSON := render(1)
	parallelText, parallelJSON := render(8)
	if serialText != parallelText {
		t.Fatalf("rendered report differs across workers:\nserial:\n%s\nparallel:\n%s", serialText, parallelText)
	}
	if !bytes.Equal(serialJSON, parallelJSON) {
		t.Fatal("serialized report set differs across workers")
	}
}

// TestReportsCoverEveryTestScenario pins the acceptance criterion that the
// report carries a row for every scenario present in the test split.
func TestReportsCoverEveryTestScenario(t *testing.T) {
	cfg := reportConfig()
	cfg.Seed = 125
	a, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reports(a)
	if err != nil {
		t.Fatal(err)
	}
	text := res.Render()
	for _, sa := range a.Sims {
		want := map[string]bool{}
		for _, s := range sa.Test.Scenarios {
			want[s] = true
		}
		if len(want) == 0 {
			t.Fatalf("%v test split lost scenario provenance", sa.Sim)
		}
		for _, rep := range res.Set.Reports {
			if rep.Simulator != sa.Sim.String() {
				continue
			}
			for scen := range want {
				if _, ok := rep.Scenario(scen); !ok {
					t.Errorf("%s/%s report misses scenario %q", rep.Simulator, rep.Monitor, scen)
				}
			}
			if len(rep.Scenarios) != len(want) {
				t.Errorf("%s/%s report has %d scenario slices, test split has %d scenarios",
					rep.Simulator, rep.Monitor, len(rep.Scenarios), len(want))
			}
		}
		for scen := range want {
			if !strings.Contains(text, scen) {
				t.Errorf("rendered report misses scenario %q", scen)
			}
		}
	}
}
