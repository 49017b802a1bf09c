package lint

import "testing"

func TestReachFixtures(t *testing.T) {
	Fixture(t, "repro/internal/reachfix", []*Analyzer{Reach}, "reach", "reachbad")
}

// TestReachSilentOnPartialLoad pins the partial-run rule: a load without
// repro/e2ebench cannot see every caller, so reach reports nothing on it.
func TestReachSilentOnPartialLoad(t *testing.T) {
	pkg, err := LoadFixture(testdataDir("reach", "reachbad"), "repro/internal/reachfix")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := RunPackages([]*Package{pkg}, []*Analyzer{Reach})
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("reach reported on a partial load: %v", diags)
	}
}
