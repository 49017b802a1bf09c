package experiments

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/artifact"
	"repro/internal/monitor"
)

// renderAll runs the experiments whose sweeps exercise every executor path
// (level grids, pair grids, raw sweep.Map cells, shared attack surfaces,
// lazy monitor resolution) and concatenates their rendered tables.
func renderAll(t *testing.T, a *Assets) string {
	t.Helper()
	out := ""
	t3, err := Table3(a)
	if err != nil {
		t.Fatal(err)
	}
	out += t3.Render()
	f5, err := Fig5(a)
	if err != nil {
		t.Fatal(err)
	}
	out += f5.Render()
	f8, err := Fig8(a)
	if err != nil {
		t.Fatal(err)
	}
	out += f8.Render()
	f9, err := Fig9Both(a)
	if err != nil {
		t.Fatal(err)
	}
	out += f9.Render()
	f10, err := Fig10(a)
	if err != nil {
		t.Fatal(err)
	}
	out += f10.Render()
	ev, err := Evasion(a)
	if err != nil {
		t.Fatal(err)
	}
	out += ev.Render()
	return out
}

// monitorOnlyStore persists trained monitors and nothing else, so fresh
// assets skip retraining while every campaign, report and sweep is still
// computed at the worker count under test.
type monitorOnlyStore struct{ artifact.Store }

func (s monitorOnlyStore) GetOrCreateFile(key artifact.Key, load func(string, int64) error, create func() error, encode func(io.Writer) error) (bool, error) {
	if key.Kind != "monitor" {
		return artifact.Disabled{}.GetOrCreateFile(key, load, create, encode)
	}
	return s.Store.GetOrCreateFile(key, load, create, encode)
}

// TestSweepDeterminism is the acceptance test of the parallel executor: with
// a fixed config seed, rendered output must be byte-identical between one
// worker and many, because per-cell seeds derive from (seed, cell index) and
// results are slotted by index. Each worker count gets freshly built assets,
// so the first fill of every lazy slot (monitors, attack surfaces) races
// under that count's concurrent cells.
func TestSweepDeterminism(t *testing.T) {
	disk, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetStore(monitorOnlyStore{disk})
	defer SetStore(nil)
	defer func(prev monitor.Precision) { _ = Configure(0, prev) }(Precision())

	var serial string
	for _, workers := range []int{1, 4, 13} {
		if err := Configure(workers, Precision()); err != nil {
			t.Fatal(err)
		}
		a, err := Build(Bench())
		if err != nil {
			t.Fatal(err)
		}
		out := renderAll(t, a)
		if workers == 1 {
			serial = out
		} else if out != serial {
			t.Fatalf("workers=%d: rendered output differs from serial run", workers)
		}
	}
}

// TestLazyMonitorCacheSharesOneInstance checks the per-key memoization: two
// requests (including concurrent ones inside a sweep) must see the same
// trained monitor.
func TestLazyMonitorCacheSharesOneInstance(t *testing.T) {
	a := benchAssets(t)
	sa := a.Sims[Simulators[0]]
	m1, err := sa.Monitor("mlp")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sa.Monitor("mlp")
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("Monitor must memoize: got two instances for one key")
	}
}

// validateRegistry checks that experimentOrder and Registry agree: every
// ordered ID is registered and every registered ID is ordered, so a
// drifting registry fails fast.
func validateRegistry() error {
	inOrder := make(map[string]bool, len(experimentOrder))
	for _, id := range experimentOrder {
		if inOrder[id] {
			return fmt.Errorf("experiments: duplicate id %q in experimentOrder", id)
		}
		inOrder[id] = true
		if _, ok := Registry[id]; !ok {
			return fmt.Errorf("experiments: ordered id %q is not registered", id)
		}
	}
	for id := range Registry {
		if !inOrder[id] {
			return fmt.Errorf("experiments: registered id %q missing from experimentOrder", id)
		}
	}
	return nil
}

func TestValidateRegistry(t *testing.T) {
	if err := validateRegistry(); err != nil {
		t.Fatal(err)
	}
	// A registered experiment missing from the order must be flagged …
	Registry["zz_test_only"] = Registry["table3"]
	defer delete(Registry, "zz_test_only")
	if err := validateRegistry(); err == nil {
		t.Fatal("want error for unordered registry entry")
	}
	// … while ExperimentIDs still lists it (deterministically, at the end).
	ids := ExperimentIDs()
	if ids[len(ids)-1] != "zz_test_only" {
		t.Fatalf("unknown id not sorted last: %v", ids)
	}
}
