package lint

import "testing"

func TestBudgetguardFixtures(t *testing.T) {
	Fixture(t, "repro/internal/mat", []*Analyzer{Budgetguard}, "budgetguard", "bgbad")
}

// TestBudgetguardFlagsOtherCriticalPackages: the sweep exemption is by
// exact path, so a launch in any other determinism-critical package —
// here the trainer's — is still flagged.
func TestBudgetguardFlagsOtherCriticalPackages(t *testing.T) {
	Fixture(t, "repro/internal/nn", []*Analyzer{Budgetguard}, "budgetguard", "bgbad")
}

// TestBudgetguardExemptsSweep: the budget pool itself may launch.
func TestBudgetguardExemptsSweep(t *testing.T) {
	pkg, err := LoadFixture(testdataDir("budgetguard", "bgbad"), budgetPool)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := RunPackage(pkg, []*Analyzer{Budgetguard})
	if err != nil {
		t.Fatalf("running budgetguard: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("budgetguard flagged the budget pool: %v", diags)
	}
}
