package experiments

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/artifact"
)

// setBytes serializes a report set the way -out does, so byte-equality here
// is the CI merge-smoke `cmp` contract.
func setBytes(t *testing.T, res *ReportsResult) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := res.Set.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestMergedShardReportsByteIdenticalToMonolith pins the fleet acceptance
// criterion end to end: evaluating every shard separately and folding the
// per-shard sets renders and serializes byte-identically to the unsharded
// Reports — for shard counts that divide the campaign, don't, and exceed
// its test-episode count (empty shards contribute identity reports).
func TestMergedShardReportsByteIdenticalToMonolith(t *testing.T) {
	cfg := reportConfig()
	cfg.Seed = 126 // keep cache-test entries disjoint
	a, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := Reports(a)
	if err != nil {
		t.Fatal(err)
	}
	wantText, wantJSON := mono.Render(), setBytes(t, mono)
	for _, count := range []int{1, 3, 5} {
		merged, err := MergedShardReports(a, count)
		if err != nil {
			t.Fatalf("shards=%d: %v", count, err)
		}
		if got := merged.Render(); got != wantText {
			t.Errorf("shards=%d: rendered report differs from monolith:\nmerged:\n%s\nmono:\n%s", count, got, wantText)
		}
		if got := setBytes(t, merged); !bytes.Equal(got, wantJSON) {
			t.Errorf("shards=%d: serialized report set differs from monolith", count)
		}
	}
}

// TestShardReportsIncrementalRecompute pins the incremental re-evaluation
// contract of per-shard report artifacts: a warm fleet run serves every
// shard from the store, a single fleet member touches only its own shard's
// keys, and a stale shard artifact re-evaluates exactly that shard.
func TestShardReportsIncrementalRecompute(t *testing.T) {
	disk, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := newKindCountingStore(disk)
	SetStore(store)
	defer SetStore(nil)
	cfg := reportConfig()
	cfg.Seed = 127
	a, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const shards = 4
	surfaces := len(Simulators) * len(MonitorNames)
	store.reset()
	cold, err := MergedShardReports(a, shards)
	if err != nil {
		t.Fatal(err)
	}
	if calls, hits := store.counts("evalreport"); calls != shards*surfaces || hits != 0 {
		t.Fatalf("cold fleet: %d report lookups (%d hits), want %d cold lookups", calls, hits, shards*surfaces)
	}

	gen, train, restore := countWork()
	defer restore()
	store.reset()
	warm, err := MergedShardReports(a, shards)
	if err != nil {
		t.Fatal(err)
	}
	if calls, hits := store.counts("evalreport"); calls != shards*surfaces || hits != shards*surfaces {
		t.Fatalf("warm fleet: %d report lookups (%d hits), want all %d hits", calls, hits, shards*surfaces)
	}
	if g, tr := gen.Load(), train.Load(); g != 0 || tr != 0 {
		t.Fatalf("warm fleet did %d generations and %d trainings, want none", g, tr)
	}
	if !bytes.Equal(setBytes(t, cold), setBytes(t, warm)) {
		t.Fatal("warm fleet result differs from cold")
	}

	// One fleet member revalidates only its own shard's keys.
	store.reset()
	if _, err := ShardReports(a, shards, 1); err != nil {
		t.Fatal(err)
	}
	if calls, hits := store.counts("evalreport"); calls != surfaces || hits != surfaces {
		t.Fatalf("single member: %d report lookups (%d hits), want %d warm lookups", calls, hits, surfaces)
	}

	// Staleness: invalidate one (surface, shard) artifact — the equivalent
	// of that shard's configuration having changed under its old key — and
	// the fleet re-evaluates exactly that shard report.
	rc, err := a.Sims[Simulators[0]].ReportConfig(MonitorNames[0])
	if err != nil {
		t.Fatal(err)
	}
	rc.ShardCount, rc.ShardIndex = shards, 2
	if _, err := os.Stat(disk.Path(rc.ArtifactKey())); err != nil {
		t.Fatalf("no stored artifact under %v: %v", rc.ArtifactKey(), err)
	}
	if err := os.WriteFile(disk.Path(rc.ArtifactKey()), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	store.reset()
	again, err := MergedShardReports(a, shards)
	if err != nil {
		t.Fatal(err)
	}
	if calls, hits := store.counts("evalreport"); calls != shards*surfaces || hits != shards*surfaces-1 {
		t.Fatalf("stale shard: %d report lookups (%d hits), want exactly one recompute", calls, hits)
	}
	if !bytes.Equal(setBytes(t, again), setBytes(t, warm)) {
		t.Fatal("recomputed stale shard changed the merged result")
	}
}

// TestShardReportKeysDisjointFromUnsharded pins that sharded report configs
// never collide with the unsharded report cache: the same surface keys
// differently per (count, index) and without sharding.
func TestShardReportKeysDisjointFromUnsharded(t *testing.T) {
	cfg := reportConfig()
	cfg.Seed = 128
	a, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := a.Sims[Simulators[0]].ReportConfig(MonitorNames[0])
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]string{rc.Fingerprint(): "unsharded"}
	for _, pos := range [][2]int{{4, 0}, {4, 1}, {2, 0}} {
		src := rc
		src.ShardCount, src.ShardIndex = pos[0], pos[1]
		if prev, dup := seen[src.Fingerprint()]; dup {
			t.Fatalf("shard %v report key collides with %s", pos, prev)
		}
		seen[src.Fingerprint()] = "sharded"
	}
}
