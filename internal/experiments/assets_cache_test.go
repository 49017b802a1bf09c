package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/monitor"
)

// tinyCacheConfig is deliberately minute: the warm-run test trains eight
// monitors twice end-to-end, so every knob is at the floor.
func tinyCacheConfig() Config {
	return Config{
		Profiles:           2,
		EpisodesPerProfile: 2,
		Steps:              80,
		Window:             6,
		Horizon:            12,
		BGTarget:           140,
		Epochs:             2,
		SemanticWeight:     1.5,
		MLPHidden1:         12,
		MLPHidden2:         6,
		LSTMHidden1:        6,
		LSTMHidden2:        4,
		ToleranceDelta:     12,
		TrainFrac:          0.5,
		Seed:               77,
	}
}

// countWork swaps the production seams for counting wrappers and returns
// the counters plus a restore func.
func countWork() (gen, train *atomic.Int32, restore func()) {
	gen, train = new(atomic.Int32), new(atomic.Int32)
	origGen, origTrain := generateFn, trainFn
	generateFn = func(cfg dataset.CampaignConfig) (*dataset.Dataset, error) {
		gen.Add(1)
		return origGen(cfg)
	}
	trainFn = func(ds *dataset.Dataset, cfg monitor.TrainConfig) (*monitor.MLMonitor, error) {
		train.Add(1)
		return origTrain(ds, cfg)
	}
	return gen, train, func() { generateFn, trainFn = origGen, origTrain }
}

// renderFresh builds fresh assets (bypassing the process-level Shared cache,
// so the disk tier is actually exercised) and renders the experiments that
// touch every monitor plus a seeded noise sweep.
func renderFresh(t *testing.T, cfg Config) string {
	t.Helper()
	a, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var sb strings.Builder
	for _, id := range []string{"table3", "fig5"} {
		if err := Run(id, a, &sb); err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
	}
	return sb.String()
}

// TestWarmRunSkipsAllWorkAndMatchesCold is the PR's acceptance criterion:
// a second run with an identical config must generate zero campaigns and
// train zero monitors, yet produce byte-identical experiment output.
func TestWarmRunSkipsAllWorkAndMatchesCold(t *testing.T) {
	root := t.TempDir()
	disk, err := artifact.NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	SetStore(disk)
	defer SetStore(nil)
	cfg := tinyCacheConfig()

	gen, train, restore := countWork()
	defer restore()

	cold := renderFresh(t, cfg)
	if g, tr := gen.Load(), train.Load(); g != 2 || tr != 8 {
		t.Fatalf("cold run did %d generations and %d trainings, want 2 and 8", g, tr)
	}

	gen.Store(0)
	train.Store(0)
	warm := renderFresh(t, cfg)
	if g := gen.Load(); g != 0 {
		t.Fatalf("warm run generated %d campaigns, want 0", g)
	}
	if tr := train.Load(); tr != 0 {
		t.Fatalf("warm run trained %d monitors, want 0", tr)
	}
	if warm != cold {
		t.Fatalf("warm output differs from cold output\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	// Every kind the run caches lives in the one .bin container.
	legacy, err := filepath.Glob(filepath.Join(root, "*", "v*", "*.art"))
	if err != nil || len(legacy) != 0 {
		t.Fatalf("cache root holds legacy .art entries %v (err %v)", legacy, err)
	}

	// A different seed must miss: content addressing, not blanket reuse.
	gen.Store(0)
	train.Store(0)
	cfg2 := cfg
	cfg2.Seed++
	_ = renderFresh(t, cfg2)
	if g, tr := gen.Load(), train.Load(); g != 2 || tr != 8 {
		t.Fatalf("changed seed reused cache: %d generations, %d trainings", g, tr)
	}
}

// TestCorruptMonitorArtifactFallsBackToRetraining corrupts one persisted
// monitor and checks the warm run silently retrains exactly that monitor —
// and still reproduces the cold output.
func TestCorruptMonitorArtifactFallsBackToRetraining(t *testing.T) {
	root := t.TempDir()
	disk, err := artifact.NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	SetStore(disk)
	defer SetStore(nil)
	cfg := tinyCacheConfig()
	cfg.Seed = 99 // keep this test's cache disjoint from the warm-run test's

	gen, train, restore := countWork()
	defer restore()
	cold := renderFresh(t, cfg)

	var monitorFiles []string
	filepath.Walk(filepath.Join(root, "monitor"), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			monitorFiles = append(monitorFiles, path)
		}
		return nil
	})
	if len(monitorFiles) != 8 {
		t.Fatalf("found %d persisted monitors, want 8", len(monitorFiles))
	}
	if err := os.WriteFile(monitorFiles[0], []byte("garbage, not an artifact\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	gen.Store(0)
	train.Store(0)
	warm := renderFresh(t, cfg)
	if g := gen.Load(); g != 0 {
		t.Fatalf("warm run generated %d campaigns, want 0", g)
	}
	if tr := train.Load(); tr != 1 {
		t.Fatalf("warm run trained %d monitors, want exactly the corrupted one", tr)
	}
	if warm != cold {
		t.Fatal("output after corruption recovery differs from cold output")
	}
}

// TestCachedMonitorRoundTrip checks the monitor store path directly: a hit
// returns a monitor whose verdicts match the trained original exactly.
func TestCachedMonitorRoundTrip(t *testing.T) {
	camp := dataset.CampaignConfig{
		Simulator: dataset.Glucosym, Profiles: 2, EpisodesPerProfile: 2, Steps: 60, Seed: 5,
	}
	ds, err := dataset.Generate(camp)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	tc := monitor.TrainConfig{Arch: monitor.ArchMLP, Epochs: 2, Hidden1: 8, Hidden2: 4, Seed: 5}
	store, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m1, hit, err := CachedMonitor(store, train, camp, 0.5, tc)
	if err != nil || hit {
		t.Fatalf("cold CachedMonitor: hit=%v err=%v", hit, err)
	}
	m2, hit, err := CachedMonitor(store, train, camp, 0.5, tc)
	if err != nil || !hit {
		t.Fatalf("warm CachedMonitor: hit=%v err=%v", hit, err)
	}
	v1, err := m1.Classify(test.Samples)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m2.Classify(test.Samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("verdict %d differs after round trip: %+v vs %+v", i, v1[i], v2[i])
		}
	}
	// A different training recipe must produce a different key.
	tc2 := tc
	tc2.Epochs = 3
	if _, hit, err := CachedMonitor(store, train, camp, 0.5, tc2); err != nil || hit {
		t.Fatalf("different recipe hit the cache: hit=%v err=%v", hit, err)
	}
	// SemanticWeight cannot affect a non-semantic monitor's weights, so it
	// must not change the key either.
	tc3 := tc
	tc3.SemanticWeight = 2.0
	if _, hit, err := CachedMonitor(store, train, camp, 0.5, tc3); err != nil || !hit {
		t.Fatalf("semantic weight invalidated a non-semantic monitor: hit=%v err=%v", hit, err)
	}
}

// damagedEntries derives the three ways a published entry goes bad from
// its healthy bytes: a truncated header, a header naming another key, and
// a garbage payload behind a valid header.
func damagedEntries(entry []byte) map[string][]byte {
	stale := bytes.Clone(entry)
	stale[len("apsrepro-artifact-raw ")] ^= 0x20 // flips the case of the kind's first letter
	return map[string][]byte{
		"truncated-header": entry[:32],
		"stale-header":     stale,
		"garbage-payload":  append(bytes.Clone(entry[:64]), "garbage"...),
	}
}

func TestCachedMonitorDamagedEntriesRetrain(t *testing.T) {
	camp := dataset.CampaignConfig{
		Simulator: dataset.Glucosym, Profiles: 2, EpisodesPerProfile: 2, Steps: 60, Seed: 6,
	}
	ds, err := dataset.Generate(camp)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := ds.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	tc := monitor.TrainConfig{Arch: monitor.ArchMLP, Epochs: 1, Hidden1: 4, Hidden2: 2, Seed: 6}
	saved := func(m *monitor.MLMonitor) []byte {
		var b bytes.Buffer
		if err := m.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	store, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := CachedMonitor(store, train, camp, 0.5, tc)
	if err != nil {
		t.Fatal(err)
	}
	path := store.Path(monitorKey(camp, 0.5, tc))
	entry, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(entry[64:], saved(cold)) {
		t.Fatal("entry payload is not the monitor's Save bytes")
	}
	for name, bad := range damagedEntries(entry) {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			_, trained, restore := countWork()
			defer restore()
			m, hit, err := CachedMonitor(store, train, camp, 0.5, tc)
			if err != nil || hit || trained.Load() != 1 {
				t.Fatalf("damaged entry: hit=%v err=%v trainings=%d, want one retrain", hit, err, trained.Load())
			}
			if !bytes.Equal(saved(m), saved(cold)) {
				t.Fatal("retrained monitor differs from the original")
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, entry) {
				t.Fatalf("re-persisted entry differs from the original (err %v)", err)
			}
		})
	}
}

// TestCachedCampaignFailingRoot: a cache root that cannot hold entries (a
// regular file where the directory should be, which even a root user
// cannot write through) degrades to generating. The fresh campaign comes
// back as a miss, without error, and the store logs the failed read and
// the failed directory creation as one line.
func TestCachedCampaignFailingRoot(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cache")
	store, err := artifact.NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(root); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(root, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged []string
	store.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }

	cfg := dataset.CampaignConfig{Simulator: dataset.Glucosym, Profiles: 2, EpisodesPerProfile: 2, Steps: 60, Seed: 5}
	want, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, hit, err := CachedCampaign(store, cfg)
	if err != nil || hit {
		t.Fatalf("failing root: hit=%v err=%v, want a miss without error", hit, err)
	}
	var got, wantBytes bytes.Buffer
	if err := ds.EncodeColumnar(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.EncodeColumnar(&wantBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantBytes.Bytes()) {
		t.Fatal("failing root returned a campaign other than the generated one")
	}
	if len(logged) != 1 {
		t.Fatalf("logged %q, want one line", logged)
	}
	if l := logged[0]; !strings.HasPrefix(l, "artifact cache: cannot open ") || !strings.Contains(l, "; cannot create ") || !strings.Contains(l, "not a directory") {
		t.Fatalf("log line %q, want cannot-open then cannot-create, naming ENOTDIR", l)
	}
}
