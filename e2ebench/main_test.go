package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/monitor"
)

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json's workloads and metric
// names and units in step with what the benchmark prints.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", got, want)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metric
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, benchmark %d", len(c.json), len(c.code))
		}
		for i, m := range c.code {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, c.json[i].Name, c.json[i].Unit, m.name, m.unit)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "cold-train", "-seconds", "0"},
		{"-workload", "cold-train", "-trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-dir", t.TempDir()), &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: ms(10)},
		{ID: 2, Parent: 1, Start: ms(1), End: ms(3)},
		{ID: 3, Parent: 1, Start: ms(2), End: ms(5)},
		{ID: 4, Parent: 1, Start: ms(7), End: ms(8)},
		{ID: 5, Parent: 3, Start: ms(2), End: ms(3)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(5), 2: ms(2), 3: ms(2), 4: ms(1), 5: ms(1)} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
}

// servedForTest trains the bench-scale served model into a temporary store.
func servedForTest(t *testing.T) *monitor.MLMonitor {
	t.Helper()
	var m *monitor.MLMonitor
	err := withStore(t.TempDir(), 2, func(*meteredStore) (err error) {
		m, err = servedMonitor(experiments.Bench())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestServeTeardownLeavesNothing runs a serve phase and checks that after
// teardown the listener is closed and the goroutine count is back to its
// baseline.
func TestServeTeardownLeavesNothing(t *testing.T) {
	m := servedForTest(t)
	base := runtime.NumGoroutine()

	p := sparseProfile
	pl, err := makePlan(p, 3, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	refs, err := references(m, pl.scripts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := startRig(m, false)
	if err != nil {
		t.Fatal(err)
	}
	addr := r.ts.Listener.Addr().String()
	snd := newSender(r, p, refs, 2)
	el, err := snd.run(ctx, pl.ref[0], false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ps := summarise(pl.ref[0], p.rows, el, p.limit); ps.failed != 0 || ps.ok != len(pl.ref[0].uploads) {
		t.Fatalf("phase: %s", ps.line("ref"))
	}
	snd.close()
	r.close()

	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Errorf("listener %s still accepts connections after teardown", addr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after teardown, baseline %d:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestCorruptedVerdictCountsAsFailure checks that an upload whose verdicts
// differ from the reference is a failed operation.
func TestCorruptedVerdictCountsAsFailure(t *testing.T) {
	m := servedForTest(t)
	p := burstProfile
	pl, err := makePlan(p, 4, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	refs, err := references(m, pl.scripts)
	if err != nil {
		t.Fatal(err)
	}
	ph := pl.ref[0]
	u := ph.uploads[len(ph.uploads)-1]
	seq := u.offset + p.rows - 1
	refs[u.session][seq].Conf += 1e-9 // corrupt one expected verdict

	r, err := startRig(m, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	snd := newSender(r, p, refs, 2)
	defer snd.close()
	el, err := snd.run(ctx, ph, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := summarise(ph, p.rows, el, p.limit)
	if ps.failed != 1 || ps.ok != len(ph.uploads)-1 {
		t.Errorf("corrupted reference: %s; want exactly one failed upload", ps.line("ref"))
	}
}

// TestCorruptedPassCountsAsFailure checks the offline output check: a pass
// whose bytes differ from the reference, a pass that errors, and a warm
// pass that misses the store each count as one failed operation.
func TestCorruptedPassCountsAsFailure(t *testing.T) {
	s, err := newStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.remove()
	want := []byte("report")
	fixed := func(out []byte, err error) pipeline {
		return func(experiments.Config, *tracer, int) ([]byte, error) { return out, err }
	}
	missing := func(experiments.Config, *tracer, int) ([]byte, error) {
		s.misses.Add(1)
		return want, nil
	}
	for _, c := range []struct {
		name   string
		p      pipeline
		warm   bool
		failed int
	}{
		{"same bytes", fixed(want, nil), false, 0},
		{"corrupted bytes", fixed([]byte("rep0rt"), nil), false, 1},
		{"pipeline error", fixed(nil, errors.New("boom")), false, 1},
		{"warm miss", missing, true, 1},
		{"cold miss", missing, false, 0},
	} {
		res := &result{metrics: map[string]float64{}}
		(&passStats{}).timePass(res, c.p, experiments.Bench(), want, s, c.warm, nil)
		if res.attempted != 1 || res.failed != c.failed {
			t.Errorf("%s: attempted %d failed %d, want 1 and %d", c.name, res.attempted, res.failed, c.failed)
		}
	}
}
