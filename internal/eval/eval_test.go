package eval

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/monitor"
)

// thresholdMonitor is a deterministic stub: it alarms whenever the sample's
// aggregated BG exceeds the threshold.
type thresholdMonitor struct{ threshold float64 }

func (m thresholdMonitor) Name() string { return "threshold" }

func (m thresholdMonitor) Classify(samples []dataset.Sample) ([]monitor.Verdict, error) {
	out := make([]monitor.Verdict, len(samples))
	for i, s := range samples {
		out[i] = monitor.Verdict{Unsafe: s.BG > m.threshold, Confidence: 1}
	}
	return out, nil
}

// failingMonitor errors on Classify, to exercise error propagation.
type failingMonitor struct{}

func (failingMonitor) Name() string { return "failing" }
func (failingMonitor) Classify([]dataset.Sample) ([]monitor.Verdict, error) {
	return nil, fmt.Errorf("boom")
}

// testDataset hand-builds a 4-episode dataset with full provenance. Episode
// BG profiles are chosen so the threshold-200 monitor detects episodes 1 and
// 3 (late and on time) and misses nothing else with a hazard.
func testDataset() *dataset.Dataset {
	ds := &dataset.Dataset{Simulator: "stub", Window: 2, Horizon: 3}
	episode := func(scenario, fault string, bg []float64, hazard []bool) {
		from := len(ds.Samples)
		for i := range bg {
			ds.Samples = append(ds.Samples, dataset.Sample{
				BG:        bg[i],
				HazardNow: hazard[i],
				EpisodeID: len(ds.EpisodeIndex),
				Step:      i,
			})
		}
		ds.EpisodeIndex = append(ds.EpisodeIndex, [2]int{from, len(ds.Samples)})
		ds.Scenarios = append(ds.Scenarios, scenario)
		ds.Faults = append(ds.Faults, fault)
	}
	// Nominal, no hazard, no alarms.
	episode("nominal", "none",
		[]float64{120, 130, 125, 128, 122, 126},
		[]bool{false, false, false, false, false, false})
	// Overdose: hazard at step 2, alarm at step 4 → latency 2.
	episode("overdose", "overdose",
		[]float64{150, 170, 190, 195, 210, 220},
		[]bool{false, false, true, true, true, true})
	// Second nominal with a lone false alarm.
	episode("nominal", "none",
		[]float64{120, 210, 125, 128, 122, 126},
		[]bool{false, false, false, false, false, false})
	// Suspend: alarm inside the tolerance window before onset → latency 0.
	episode("suspend", "suspend",
		[]float64{150, 205, 180, 170, 160, 150},
		[]bool{false, false, false, true, true, true})
	return ds
}

func mustEvaluate(t *testing.T, m monitor.Monitor, ds *dataset.Dataset, opts Options) *Report {
	t.Helper()
	rep, err := Evaluate(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestBinaryPredictions(t *testing.T) {
	got := BinaryPredictions([]monitor.Verdict{{Unsafe: true}, {Unsafe: false}, {Unsafe: true}})
	if !reflect.DeepEqual(got, []int{1, 0, 1}) {
		t.Fatalf("BinaryPredictions = %v", got)
	}
	if got := BinaryPredictions(nil); len(got) != 0 {
		t.Fatalf("nil verdicts gave %v", got)
	}
}

func TestEvaluateSlicesAndLatency(t *testing.T) {
	ds := testDataset()
	rep := mustEvaluate(t, thresholdMonitor{200}, ds, Options{Tolerance: 2, Workers: 1})

	if rep.Simulator != "stub" || rep.Monitor != "threshold" {
		t.Fatalf("identity = %q/%q", rep.Simulator, rep.Monitor)
	}
	if rep.Episodes != 4 || rep.Samples != 24 {
		t.Fatalf("episodes/samples = %d/%d", rep.Episodes, rep.Samples)
	}

	// Scenario slices come out sorted by key and partition the episodes.
	keys := make([]string, len(rep.Scenarios))
	total := metrics.Confusion{}
	episodes := 0
	for i, s := range rep.Scenarios {
		keys[i] = s.Key
		total.Add(s.Confusion)
		episodes += s.Episodes
	}
	if !reflect.DeepEqual(keys, []string{"nominal", "overdose", "suspend"}) {
		t.Fatalf("scenario keys = %v", keys)
	}
	if total != rep.Overall.Confusion || episodes != rep.Episodes {
		t.Fatalf("scenario slices don't partition overall: %+v vs %+v", total, rep.Overall.Confusion)
	}

	faultKeys := make([]string, len(rep.Faults))
	for i, s := range rep.Faults {
		faultKeys[i] = s.Key
	}
	if !reflect.DeepEqual(faultKeys, []string{"none", "overdose", "suspend"}) {
		t.Fatalf("fault keys = %v", faultKeys)
	}

	// Latency: overdose detected 2 steps late, suspend on time.
	over, ok := rep.Scenario("overdose")
	if !ok || over.Latency.Detected != 1 || over.Latency.Mean != 2 {
		t.Fatalf("overdose latency = %+v", over.Latency)
	}
	susp, ok := rep.Scenario("suspend")
	if !ok || susp.Latency.Detected != 1 || susp.Latency.Mean != 0 {
		t.Fatalf("suspend latency = %+v", susp.Latency)
	}
	if rep.Overall.Latency.Hazards != 2 || rep.Overall.Latency.Missed != 0 {
		t.Fatalf("overall latency = %+v", rep.Overall.Latency)
	}
	nom, ok := rep.Scenario("nominal")
	if !ok || nom.Latency.Hazards != 0 || nom.Confusion.FP == 0 {
		t.Fatalf("nominal slice = %+v", nom)
	}
}

func TestEvaluateDeterministicAcrossWorkers(t *testing.T) {
	ds := testDataset()
	m := thresholdMonitor{200}
	base := mustEvaluate(t, m, ds, Options{Tolerance: 2, Workers: 1})
	var baseBytes bytes.Buffer
	if err := base.Save(&baseBytes); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		rep := mustEvaluate(t, m, ds, Options{Tolerance: 2, Workers: workers})
		if !reflect.DeepEqual(rep, base) {
			t.Fatalf("report differs at Workers=%d:\n%+v\nvs\n%+v", workers, rep, base)
		}
		var b bytes.Buffer
		if err := rep.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), baseBytes.Bytes()) {
			t.Fatalf("serialized report differs at Workers=%d", workers)
		}
	}
}

func TestEvaluatePredictionsMatchesEvaluate(t *testing.T) {
	ds := testDataset()
	m := thresholdMonitor{200}
	direct := mustEvaluate(t, m, ds, Options{Tolerance: 2, Workers: 1})
	pred, err := Predict(m, monitor.F64, ds.Samples)
	if err != nil {
		t.Fatal(err)
	}
	fromPred, err := EvaluatePredictions(m.Name(), pred, ds, Options{Tolerance: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, fromPred) {
		t.Fatalf("EvaluatePredictions diverges:\n%+v\nvs\n%+v", direct, fromPred)
	}
}

func TestEvaluateProvenanceFreeDegradesToUnknown(t *testing.T) {
	ds := testDataset()
	ds.Scenarios = nil // a dataset persisted before provenance was recorded
	ds.Faults = nil
	rep := mustEvaluate(t, thresholdMonitor{200}, ds, Options{Tolerance: 2, Workers: 1})
	for _, slices := range [][]Slice{rep.Scenarios, rep.Faults} {
		if len(slices) != 1 || slices[0].Key != SliceUnknown {
			t.Fatalf("provenance-free slices = %+v, want single %q", slices, SliceUnknown)
		}
		if slices[0].Confusion != rep.Overall.Confusion || slices[0].Episodes != rep.Episodes {
			t.Fatalf("unknown slice %+v does not cover overall %+v", slices[0], rep.Overall)
		}
	}

	// Misaligned provenance (e.g. a hand-assembled subset) degrades the same
	// way rather than mis-slicing.
	ds.Scenarios = []string{"nominal"}
	rep = mustEvaluate(t, thresholdMonitor{200}, ds, Options{Tolerance: 2, Workers: 1})
	if len(rep.Scenarios) != 1 || rep.Scenarios[0].Key != SliceUnknown {
		t.Fatalf("misaligned provenance slices = %+v", rep.Scenarios)
	}
}

func TestEvaluateErrors(t *testing.T) {
	ds := testDataset()
	if _, err := Evaluate(thresholdMonitor{200}, &dataset.Dataset{}, Options{Tolerance: 2}); err == nil {
		t.Error("empty dataset did not error")
	}
	if _, err := Evaluate(thresholdMonitor{200}, ds, Options{Tolerance: -1}); err == nil {
		t.Error("negative tolerance did not error")
	}
	if _, err := EvaluatePredictions("x", make([]int, 3), ds, Options{Tolerance: 2}); err == nil {
		t.Error("prediction length mismatch did not error")
	}
	if _, err := Evaluate(failingMonitor{}, ds, Options{Tolerance: 2, Workers: 1}); err == nil || !strings.Contains(err.Error(), "episode") {
		t.Errorf("classify failure not annotated with episode: %v", err)
	}
}

func TestReportSaveLoadRoundTrip(t *testing.T) {
	rep := mustEvaluate(t, thresholdMonitor{200}, testDataset(), Options{Tolerance: 2, Workers: 1})
	var b bytes.Buffer
	if err := rep.Save(&b); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip diverges:\n%+v\nvs\n%+v", got, rep)
	}
	if _, err := LoadReport(strings.NewReader("not json")); err == nil {
		t.Error("corrupt report did not error")
	}
	if _, err := LoadReport(strings.NewReader("{}")); err == nil {
		t.Error("empty report did not error")
	}
}

func TestCachedReport(t *testing.T) {
	ds := testDataset()
	m := thresholdMonitor{200}
	cfg := ReportConfig{
		Campaign:  dataset.CampaignConfig{Simulator: dataset.Glucosym, Profiles: 2, EpisodesPerProfile: 2, Steps: 60, Seed: 5},
		TrainFrac: 0.75,
		Monitor:   m.Name(),
		Tolerance: 2,
	}
	computes := 0
	compute := func() (*Report, error) {
		computes++
		return Evaluate(m, ds, Options{Tolerance: cfg.Tolerance, Workers: 1})
	}

	// The disabled store always computes.
	if _, hit, err := CachedReport(artifact.Disabled{}, cfg, compute); err != nil || hit {
		t.Fatalf("disabled store: hit=%v err=%v", hit, err)
	}

	store, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, hit, err := CachedReport(store, cfg, compute)
	if err != nil || hit {
		t.Fatalf("cold: hit=%v err=%v", hit, err)
	}
	warm, hit, err := CachedReport(store, cfg, compute)
	if err != nil || !hit {
		t.Fatalf("warm: hit=%v err=%v", hit, err)
	}
	if computes != 2 {
		t.Fatalf("computes = %d, want 2 (disabled store + cold)", computes)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cached report diverges:\n%+v\nvs\n%+v", cold, warm)
	}

	// Any addressed knob change must miss: tolerance, monitor, recipe,
	// split, campaign.
	for name, mut := range map[string]func(c ReportConfig) ReportConfig{
		"tolerance": func(c ReportConfig) ReportConfig { c.Tolerance++; return c },
		"monitor":   func(c ReportConfig) ReportConfig { c.Monitor = "other"; return c },
		"recipe":    func(c ReportConfig) ReportConfig { c.Train.Epochs = 99; return c },
		"split":     func(c ReportConfig) ReportConfig { c.TrainFrac = 0.5; return c },
		"campaign":  func(c ReportConfig) ReportConfig { c.Campaign.Seed++; return c },
	} {
		if _, hit, err := CachedReport(store, mut(cfg), compute); err != nil || hit {
			t.Errorf("%s change hit the cache: hit=%v err=%v", name, hit, err)
		}
	}

	// Worker counts never enter the fingerprint.
	w := cfg
	w.Campaign.Workers = 8
	w.Train.Workers = 8
	if _, hit, err := CachedReport(store, w, compute); err != nil || !hit {
		t.Errorf("worker counts invalidated the report: hit=%v err=%v", hit, err)
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

func TestCachedReportDamagedEntriesRecompute(t *testing.T) {
	ds := testDataset()
	m := thresholdMonitor{200}
	cfg := ReportConfig{Monitor: m.Name(), Tolerance: 2}
	computes := 0
	compute := func() (*Report, error) {
		computes++
		return Evaluate(m, ds, Options{Tolerance: cfg.Tolerance, Workers: 1})
	}
	saved := func(rep *Report) []byte {
		var b bytes.Buffer
		if err := rep.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	store, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := CachedReport(store, cfg, compute)
	if err != nil {
		t.Fatal(err)
	}
	path := store.Path(cfg.ArtifactKey())
	entry, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(entry[64:], saved(cold)) {
		t.Fatal("entry payload is not the report's Save bytes")
	}
	for name, bad := range damagedEntries(entry) {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			before := computes
			rep, hit, err := CachedReport(store, cfg, compute)
			if err != nil || hit || computes != before+1 {
				t.Fatalf("damaged entry: hit=%v err=%v computes=%d, want one recompute", hit, err, computes-before)
			}
			if !bytes.Equal(saved(rep), saved(cold)) {
				t.Fatal("recomputed report differs from the original")
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, entry) {
				t.Fatalf("re-persisted entry differs from the original (err %v)", err)
			}
		})
	}
}

// TestCachedReportFailingRoot: a cache root that cannot hold entries (a
// regular file where the directory should be, which even a root user
// cannot write through) degrades to computing. The freshly built report
// comes back as a miss, without error, and the store logs why.
func TestCachedReportFailingRoot(t *testing.T) {
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

	ds := testDataset()
	m := thresholdMonitor{200}
	cfg := ReportConfig{Monitor: m.Name(), Tolerance: 2}
	want, err := Evaluate(m, ds, Options{Tolerance: cfg.Tolerance, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, hit, err := CachedReport(store, cfg, func() (*Report, error) {
		return Evaluate(m, ds, Options{Tolerance: cfg.Tolerance, Workers: 1})
	})
	if err != nil || hit {
		t.Fatalf("failing root: hit=%v err=%v, want a miss without error", hit, err)
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatal("failing root returned a report other than the computed one")
	}
	checkFailingRootLog(t, logged)
}

// checkFailingRootLog pins what a regular-file cache root logs for one
// miss: a single line naming the failed read of the entry, with its cause,
// then the failed creation of its directory, and no store or hit.
func checkFailingRootLog(t *testing.T, logged []string) {
	t.Helper()
	if len(logged) != 1 {
		t.Fatalf("logged %q, want one line", logged)
	}
	l := logged[0]
	if !strings.HasPrefix(l, "artifact cache: cannot open ") || !strings.Contains(l, "; cannot create ") || !strings.Contains(l, "not a directory") {
		t.Fatalf("log line %q, want cannot-open then cannot-create, naming ENOTDIR", l)
	}
}
