package eval

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// reportBytes serializes a report exactly like the artifact store does, so
// byte-equality here is the same contract CachedReport round-trips under.
func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rep.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// episodeReports evaluates each requested episode subset of the test
// dataset separately — the in-process stand-in for a shard fleet.
func episodeReports(t *testing.T, ranges [][2]int) []*Report {
	t.Helper()
	ds := testDataset()
	reps := make([]*Report, len(ranges))
	for i, r := range ranges {
		from, to := r[0], r[1]
		sub := ds.Filter(func(ep int) bool { return ep >= from && ep < to })
		if len(sub.EpisodeIndex) == 0 {
			reps[i] = NewEmptyReport(ds.Simulator, "threshold", 2)
			continue
		}
		reps[i] = mustEvaluate(t, thresholdMonitor{200}, sub, Options{Tolerance: 2, Workers: 1})
	}
	return reps
}

// TestMergeShardsByteIdenticalToMonolith pins the monoid's point: folding
// Merge over per-shard reports — for several partitions of the 4-episode
// dataset, including one with an empty shard — serializes to exactly the
// bytes of the single-process report.
func TestMergeShardsByteIdenticalToMonolith(t *testing.T) {
	mono := mustEvaluate(t, thresholdMonitor{200}, testDataset(), Options{Tolerance: 2, Workers: 1})
	want := reportBytes(t, mono)
	partitions := [][][2]int{
		{{0, 4}},
		{{0, 2}, {2, 4}},
		{{0, 1}, {1, 2}, {2, 3}, {3, 4}},
		{{0, 3}, {3, 3}, {3, 4}}, // middle shard holds no episodes
	}
	for _, ranges := range partitions {
		merged, err := MergeReports(episodeReports(t, ranges))
		if err != nil {
			t.Fatalf("partition %v: %v", ranges, err)
		}
		if got := reportBytes(t, merged); !bytes.Equal(got, want) {
			t.Errorf("partition %v: merged report differs from monolithic evaluation:\nmerged: %s\nmono:   %s",
				ranges, got, want)
		}
	}
}

// TestMergeAssociativeAndIdentity pins the monoid laws byte-for-byte:
// (a·b)·c == a·(b·c), and the zero Report and NewEmptyReport are two-sided
// identities.
func TestMergeAssociativeAndIdentity(t *testing.T) {
	reps := episodeReports(t, [][2]int{{0, 1}, {1, 3}, {3, 4}})
	a, b, c := reps[0], reps[1], reps[2]

	ab, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	left, err := ab.Merge(c)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := b.Merge(c)
	if err != nil {
		t.Fatal(err)
	}
	right, err := a.Merge(bc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, left), reportBytes(t, right)) {
		t.Fatal("(a·b)·c and a·(b·c) serialize differently")
	}

	zero := &Report{}
	if !zero.IsZero() {
		t.Fatal("the zero Report is not IsZero")
	}
	// NewEmptyReport carries the surface identity (so it validates against
	// siblings) but must still merge as a payload no-op.
	for _, id := range []*Report{zero, NewEmptyReport(a.Simulator, a.Monitor, a.Tolerance)} {
		lhs, err := id.Merge(a)
		if err != nil {
			t.Fatal(err)
		}
		rhs, err := a.Merge(id)
		if err != nil {
			t.Fatal(err)
		}
		want := reportBytes(t, a)
		// The fold re-stamps FormatVersion but must leave the payload alone.
		if !bytes.Equal(reportBytes(t, lhs), want) || !bytes.Equal(reportBytes(t, rhs), want) {
			t.Fatal("identity merge altered the report bytes")
		}
	}
}

// TestMergeRejectsMismatchedSurfaces covers the validation surface: reports
// of different simulators, monitors, or tolerances refuse to merge.
func TestMergeRejectsMismatchedSurfaces(t *testing.T) {
	a := mustEvaluate(t, thresholdMonitor{200}, testDataset(), Options{Tolerance: 2, Workers: 1})

	other := *a
	other.Monitor = "impostor"
	if _, err := a.Merge(&other); err == nil || !strings.Contains(err.Error(), "different surfaces") {
		t.Fatalf("merging different monitors gave %v", err)
	}
	other = *a
	other.Simulator = "elsewhere"
	if _, err := a.Merge(&other); err == nil || !strings.Contains(err.Error(), "different surfaces") {
		t.Fatalf("merging different simulators gave %v", err)
	}
	other = *a
	other.Tolerance = a.Tolerance + 1
	if _, err := a.Merge(&other); err == nil || !strings.Contains(err.Error(), "tolerances") {
		t.Fatalf("merging different tolerances gave %v", err)
	}

	if _, err := MergeReports(nil); err == nil {
		t.Error("MergeReports(nil) succeeded, want error")
	}
	if _, err := MergeSets(nil); err == nil {
		t.Error("MergeSets(nil) succeeded, want error")
	}
	if _, err := MergeSets([]*Set{
		{Tolerance: 2, Reports: []*Report{a}},
		{Tolerance: 3, Reports: []*Report{a}},
	}); err == nil || !strings.Contains(err.Error(), "tolerance") {
		t.Errorf("MergeSets with mismatched tolerances gave %v", err)
	}
	if _, err := MergeSets([]*Set{
		{Tolerance: 2, Reports: []*Report{a}},
		{Tolerance: 2, Reports: []*Report{a, a}},
	}); err == nil || !strings.Contains(err.Error(), "reports") {
		t.Errorf("MergeSets with mismatched report counts gave %v", err)
	}
}

// TestMergeSetsColumnwise pins the set fold: sets merge position-aligned,
// and the merged set round-trips through Save/LoadSet.
func TestMergeSetsColumnwise(t *testing.T) {
	mono := mustEvaluate(t, thresholdMonitor{200}, testDataset(), Options{Tolerance: 2, Workers: 1})
	reps := episodeReports(t, [][2]int{{0, 2}, {2, 4}})
	merged, err := MergeSets([]*Set{
		{Tolerance: 2, Reports: []*Report{reps[0]}},
		{Tolerance: 2, Reports: []*Report{reps[1]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Reports) != 1 {
		t.Fatalf("merged set has %d reports, want 1", len(merged.Reports))
	}
	if !bytes.Equal(reportBytes(t, merged.Reports[0]), reportBytes(t, mono)) {
		t.Fatal("column-wise set merge differs from the monolithic report")
	}

	var b bytes.Buffer
	if err := merged.Save(&b); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSet(&b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, loaded.Reports[0]), reportBytes(t, mono)) {
		t.Fatal("merged set did not round-trip through Save/LoadSet")
	}
}

// TestLoadReportRejectsFormatVersionMismatch pins the versioning satellite:
// reports from other format versions — including version-0 payloads like
// `{}` — are rejected with an actionable error.
func TestLoadReportRejectsFormatVersionMismatch(t *testing.T) {
	if _, err := LoadReport(strings.NewReader(`{}`)); err == nil ||
		!strings.Contains(err.Error(), "format version 0") {
		t.Fatalf(`LoadReport({}) = %v, want format-version error`, err)
	}
	if _, err := LoadReport(strings.NewReader(`{"FormatVersion": 99}`)); err == nil ||
		!strings.Contains(err.Error(), "format version 99") {
		t.Fatalf("LoadReport(v99) = %v, want format-version error", err)
	}

	rep := mustEvaluate(t, thresholdMonitor{200}, testDataset(), Options{Tolerance: 2, Workers: 1})
	var b bytes.Buffer
	if err := rep.Save(&b); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReport(&b)
	if err != nil {
		t.Fatal(err)
	}
	if back.FormatVersion != FormatVersion {
		t.Fatalf("round-trip FormatVersion = %d, want %d", back.FormatVersion, FormatVersion)
	}

	// Identity reports round-trip too: shard fleets persist them for empty
	// shards.
	b.Reset()
	if err := NewEmptyReport("stub", "threshold", 2).Save(&b); err != nil {
		t.Fatal(err)
	}
	empty, err := LoadReport(&b)
	if err != nil {
		t.Fatalf("identity report did not round-trip: %v", err)
	}
	if empty.Episodes != 0 || empty.Monitor != "threshold" {
		t.Fatalf("identity report came back as %d episodes for %q", empty.Episodes, empty.Monitor)
	}

	// Sets validate per-report versions.
	if _, err := LoadSet(strings.NewReader(`{"Tolerance":2,"Reports":[{"FormatVersion":1}]}`)); err == nil ||
		!strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("LoadSet with a v1 report gave %v", err)
	}
	if _, err := LoadSet(strings.NewReader(`{"Tolerance":2,"Reports":[null]}`)); err == nil {
		t.Fatal("LoadSet with a null report succeeded, want error")
	}
}

// FuzzLoadSet treats a -merge-reports input as hostile bytes: LoadSet may
// reject it, but whatever loads must merge with itself and save without a
// panic.
func FuzzLoadSet(f *testing.F) {
	rep, err := Evaluate(thresholdMonitor{200}, testDataset(), Options{Tolerance: 2, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	empty := NewEmptyReport(rep.Simulator, rep.Monitor, 2)
	var b bytes.Buffer
	if err := (&Set{Tolerance: 2, Reports: []*Report{rep, empty}}).Save(&b); err != nil {
		f.Fatal(err)
	}
	seed := b.Bytes()
	f.Add(seed)
	for _, n := range []int{0, 1, len(seed) / 3, len(seed) / 2, len(seed) - 2} {
		f.Add(seed[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		merged, err := MergeSets([]*Set{s, s})
		if err != nil {
			return
		}
		_ = merged.Save(io.Discard)
	})
}

// FuzzLoadReport treats a stored evaluation report (an evalreport store
// entry, or apsexperiments -report -out JSON) as hostile bytes: LoadReport
// may reject it, but never panic, and a report it returns must save to
// bytes that load again and save the same. Seeds: a saved report, cut at
// several lengths, the same report under another format version, and the
// empty and non-JSON inputs TestReportSaveLoadRoundTrip rejects.
func FuzzLoadReport(f *testing.F) {
	rep, err := Evaluate(thresholdMonitor{200}, testDataset(), Options{Tolerance: 2, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	var b bytes.Buffer
	if err := rep.Save(&b); err != nil {
		f.Fatal(err)
	}
	seed := b.Bytes()
	f.Add(seed)
	for _, n := range []int{0, 1, len(seed) / 3, len(seed) / 2, len(seed) - 2} {
		f.Add(seed[:n])
	}
	f.Add(bytes.Replace(seed, []byte(fmt.Sprintf(`"FormatVersion":%d`, FormatVersion)), []byte(`"FormatVersion":0`), 1))
	f.Add([]byte("{}"))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := LoadReport(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := r.Save(&first); err != nil {
			t.Fatalf("a loaded report does not save: %v", err)
		}
		again, err := LoadReport(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a saved report does not load: %v", err)
		}
		if err := again.Save(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save→load→save changed the bytes (err %v)", err)
		}
	})
}
