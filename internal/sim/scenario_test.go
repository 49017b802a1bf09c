package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/patient"
)

func TestRegistryLookupUnknown(t *testing.T) {
	_, err := Scenarios.Lookup("no_such_scenario")
	if err == nil {
		t.Fatal("unknown scenario must not resolve")
	}
	if !strings.Contains(err.Error(), "no_such_scenario") || !strings.Contains(err.Error(), ScenarioNominal) {
		t.Fatalf("error should name the miss and the known scenarios: %v", err)
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := NewScenarioRegistry()
	if err := r.Register(Scenario{Name: "", Apply: func(*rand.Rand, *Config) {}}); err == nil {
		t.Fatal("empty name must be rejected")
	}
	if err := r.Register(Scenario{Name: "x"}); err == nil {
		t.Fatal("nil Apply must be rejected")
	}
	ok := Scenario{Name: "x", Apply: func(*rand.Rand, *Config) {}}
	if err := r.Register(ok); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := r.Register(ok); err == nil {
		t.Fatal("duplicate registration must be rejected")
	}
}

func TestBuiltinScenarioNames(t *testing.T) {
	want := []string{
		ScenarioNominal, ScenarioOverdose, ScenarioUnderdose, ScenarioSuspend,
		ScenarioStuck, ScenarioMaxRate, ScenarioRandomFault, ScenarioSensorDropout,
		ScenarioSensorDrift, ScenarioMissedMeal, ScenarioIrregularMeals, ScenarioCompound,
	}
	got := Scenarios.order
	if len(got) != len(want) {
		t.Fatalf("builtin scenarios = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("builtin scenarios = %v, want %v", got, want)
		}
	}
}

func TestParseScenarioMix(t *testing.T) {
	mix, err := ParseScenarioMix(" nominal:2, random_fault ,sensor_drift:0.5 ", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ScenarioMix{{"nominal", 2}, {"random_fault", 1}, {"sensor_drift", 0.5}}
	if len(mix) != len(want) {
		t.Fatalf("mix = %v, want %v", mix, want)
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Fatalf("mix = %v, want %v", mix, want)
		}
	}
	for _, bad := range []string{
		"",                      // empty mix
		"nominal:x",             // unparseable weight
		"nominal:0",             // non-positive weight
		"nominal:-1",            // negative weight
		"bogus",                 // unknown name
		"nominal,nominal",       // repeated name
		"nominal:1,,,bogus:2.0", // unknown name among valid entries
	} {
		if _, err := ParseScenarioMix(bad, nil); err == nil {
			t.Errorf("ParseScenarioMix(%q) should fail", bad)
		}
	}
}

func TestParseScenarioMixFlag(t *testing.T) {
	mix, err := ParseScenarioMixFlag("  ")
	if err != nil || mix != nil {
		t.Fatalf("empty flag = (%v, %v), want (nil, nil)", mix, err)
	}
	if _, err := ParseScenarioMixFlag("bogus"); err == nil {
		t.Fatal("unknown scenario must error")
	}
	if mix, err := ParseScenarioMixFlag("nominal:3"); err != nil || len(mix) != 1 {
		t.Fatalf("valid flag = (%v, %v)", mix, err)
	}
}

func TestScenarioMixValidate(t *testing.T) {
	if err := (ScenarioMix{}).Validate(nil); err == nil {
		t.Fatal("empty mix must not validate")
	}
	if err := (ScenarioMix{{"bogus", 1}}).Validate(nil); err == nil {
		t.Fatal("unknown scenario must not validate")
	}
	if err := (ScenarioMix{{ScenarioNominal, 0}}).Validate(nil); err == nil {
		t.Fatal("zero weight must not validate")
	}
	if err := DefaultScenarioMix().Validate(nil); err != nil {
		t.Fatalf("default mix must validate: %v", err)
	}
}

func TestScenarioMixNormalized(t *testing.T) {
	mix := ScenarioMix{{ScenarioNominal, 3}, {ScenarioRandomFault, 1}}
	norm := mix.Normalized()
	var sum float64
	for _, s := range norm {
		sum += s.Weight
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("normalized weights sum to %v, want 1", sum)
	}
	if math.Abs(norm[0].Weight-0.75) > 1e-12 || math.Abs(norm[1].Weight-0.25) > 1e-12 {
		t.Fatalf("normalized = %v, want 0.75/0.25", norm)
	}
	// String renders the normalized canonical form.
	if got := mix.String(); got != "nominal:0.75,random_fault:0.25" {
		t.Fatalf("String = %q", got)
	}
}

func TestScenarioMixAssignQuotas(t *testing.T) {
	// A 1:1 mix over an even count splits exactly in half, interleaved.
	mix := DefaultScenarioMix()
	assign := mix.Assign(8)
	counts := map[int]int{}
	for _, a := range assign {
		counts[a]++
	}
	if counts[0] != 4 || counts[1] != 4 {
		t.Fatalf("1:1 mix over 8 episodes assigned %v, want 4/4", counts)
	}
	// Proportions track weights within one episode at every prefix.
	mix3 := ScenarioMix{{ScenarioNominal, 2}, {ScenarioRandomFault, 1}, {ScenarioSensorDrift, 1}}
	assign3 := mix3.Assign(100)
	counts3 := map[int]int{}
	for n, a := range assign3 {
		counts3[a]++
		for i, w := range []float64{0.5, 0.25, 0.25} {
			if d := math.Abs(float64(counts3[i]) - w*float64(n+1)); d > 1 {
				t.Fatalf("after %d slots scenario %d has %d assignments, want %.1f±1", n+1, i, counts3[i], w*float64(n+1))
			}
		}
	}
	// Assignment is deterministic.
	again := mix3.Assign(100)
	for i := range assign3 {
		if assign3[i] != again[i] {
			t.Fatal("Assign is not deterministic")
		}
	}
}

// buildScenario builds one Glucosym episode under the named scenario.
func buildScenario(t *testing.T, name string) Config {
	t.Helper()
	cfg, err := BuildGlucosymEpisode(EpisodeConfig{ProfileID: 1, Seed: 42, Scenario: name}, 120)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	if cfg.Scenario != name {
		t.Fatalf("config scenario = %q, want %q", cfg.Scenario, name)
	}
	return cfg
}

func TestScenarioShapes(t *testing.T) {
	if cfg := buildScenario(t, ScenarioNominal); cfg.Fault != nil || cfg.Sensor != nil {
		t.Fatal("nominal must not inject a fault or degrade the sensor")
	}
	for _, ft := range []FaultType{FaultOverdose, FaultUnderdose, FaultSuspend, FaultStuck, FaultMax} {
		cfg := buildScenario(t, ft.String())
		if cfg.Fault == nil || cfg.Fault.Type != ft {
			t.Fatalf("scenario %s: fault = %+v", ft, cfg.Fault)
		}
		if cfg.Fault.Duration <= 0 || cfg.Fault.StartStep <= 0 {
			t.Fatalf("scenario %s: degenerate fault %+v", ft, cfg.Fault)
		}
	}
	if cfg := buildScenario(t, ScenarioRandomFault); cfg.Fault == nil {
		t.Fatal("random_fault must inject a fault")
	}
	if cfg := buildScenario(t, ScenarioSensorDropout); cfg.Sensor == nil || cfg.Sensor.DropoutProb <= 0 {
		t.Fatal("sensor_dropout must configure dropout")
	}
	if cfg := buildScenario(t, ScenarioSensorDrift); cfg.Sensor == nil || cfg.Sensor.DriftStd <= 0 {
		t.Fatal("sensor_drift must configure drift")
	}
	// Glucosym's controller never hears announcements, so missed_meal skips
	// a meal outright (same seed as nominal → one fewer meal).
	nominalMeals := len(buildScenario(t, ScenarioNominal).Meals)
	if cfg := buildScenario(t, ScenarioMissedMeal); len(cfg.Meals) != nominalMeals-1 {
		t.Fatalf("glucosym missed_meal kept %d meals, want %d", len(cfg.Meals), nominalMeals-1)
	}
	// T1DS announces meals, so the miss is an unannounced (undosed) meal.
	t1ds, err := BuildT1DSEpisode(EpisodeConfig{ProfileID: 1, Seed: 42, Scenario: ScenarioMissedMeal}, 120)
	if err != nil {
		t.Fatal(err)
	}
	missed := 0
	for _, m := range t1ds.Meals {
		if m.Unannounced {
			missed++
		}
	}
	if missed != 1 {
		t.Fatalf("t1ds missed_meal marked %d meals unannounced, want 1", missed)
	}
	if cfg := buildScenario(t, ScenarioCompound); cfg.Fault == nil || cfg.Sensor == nil || cfg.SensorNoiseStd <= 2 {
		t.Fatal("compound must inject a fault, degrade the sensor and raise noise")
	}
	// Every scenario still runs end to end.
	for _, name := range Scenarios.order {
		cfg, err := BuildGlucosymEpisode(EpisodeConfig{ProfileID: 0, Seed: 7, Scenario: name}, 60)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		tr, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		if tr.Scenario != name {
			t.Fatalf("trace scenario = %q, want %q", tr.Scenario, name)
		}
		if len(tr.Records) != 60 {
			t.Fatalf("run %s: %d records", name, len(tr.Records))
		}
	}
}

func TestUnknownScenarioFailsBuild(t *testing.T) {
	if _, err := BuildGlucosymEpisode(EpisodeConfig{Scenario: "bogus"}, 60); err == nil {
		t.Fatal("unknown scenario must fail the build")
	}
	if _, err := BuildT1DSEpisode(EpisodeConfig{Scenario: "bogus"}, 60); err == nil {
		t.Fatal("unknown scenario must fail the build")
	}
}

// TestUnannouncedMealHiddenFromController pins the missed-bolus semantics:
// an unannounced meal is absorbed identically but the announcement-driven
// controller never sees its carbs, so its insulin response differs.
func TestUnannouncedMealHiddenFromController(t *testing.T) {
	build := func(unannounced bool) Config {
		p, err := patient.NewT1DSProfile(0)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Patient:       p,
			Controller:    controllerForT1DS(p),
			StepMin:       5,
			Steps:         60,
			AnnounceMeals: true,
			Meals: patient.MealSchedule{
				{StartMin: 60, Grams: 60, DurationMin: 15, Unannounced: unannounced},
			},
			Seed: 9,
		}
	}
	announced, err := Run(build(false))
	if err != nil {
		t.Fatal(err)
	}
	hidden, err := Run(build(true))
	if err != nil {
		t.Fatal(err)
	}
	// Same carbs enter the gut either way.
	if announced.Records[12].CarbsRate != hidden.Records[12].CarbsRate {
		t.Fatal("absorption must not depend on announcement")
	}
	// The controller's commands must diverge at/after the meal step.
	diverged := false
	for i := range announced.Records {
		if announced.Records[i].Commanded != hidden.Records[i].Commanded {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("hiding the announcement did not change the controller's commands")
	}
}

func TestIrregularMealsWithinEpisode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		meals := IrregularMeals(rng, 1000)
		if len(meals) == 0 {
			t.Fatal("irregular schedule should contain meals over 1000 minutes")
		}
		for _, m := range meals {
			if m.StartMin < 0 || m.StartMin >= 1000 || m.Grams < 10 || m.Grams > 100 {
				t.Fatalf("meal out of range: %+v", m)
			}
		}
	}
}
