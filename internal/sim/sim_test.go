package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/controller"
	"repro/internal/patient"
)

func runEpisode(t *testing.T, build func(EpisodeConfig, int) (Config, error), ec EpisodeConfig, steps int) *Trace {
	t.Helper()
	cfg, err := build(ec, steps)
	if err != nil {
		t.Fatalf("build episode: %v", err)
	}
	tr, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return tr
}

func TestNominalGlucosymEpisodeStaysSafe(t *testing.T) {
	tr := runEpisode(t, BuildGlucosymEpisode, EpisodeConfig{ProfileID: 0, Seed: 1}, 200)
	if len(tr.Records) != 200 {
		t.Fatalf("records = %d, want 200", len(tr.Records))
	}
	hazards := len(tr.HazardSteps())
	// Brief post-meal hyperglycemia is expected with unannounced meals and a
	// reactive controller; sustained hazard is not.
	if float64(hazards) > 0.25*200 {
		t.Fatalf("nominal episode hazardous at %d/200 steps", hazards)
	}
	if tr.Simulator != "glucosym" || tr.Controller != "openaps" {
		t.Fatalf("labels: %s/%s", tr.Simulator, tr.Controller)
	}
}

func TestNominalT1DSEpisodeStaysSafe(t *testing.T) {
	tr := runEpisode(t, BuildT1DSEpisode, EpisodeConfig{ProfileID: 0, Seed: 2}, 200)
	hazards := len(tr.HazardSteps())
	if float64(hazards) > 0.2*200 {
		t.Fatalf("nominal episode hazardous at %d/200 steps", hazards)
	}
	if tr.Simulator != "t1ds" || tr.Controller != "basal_bolus" {
		t.Fatalf("labels: %s/%s", tr.Simulator, tr.Controller)
	}
}

func TestOverdoseFaultCausesHypoglycemia(t *testing.T) {
	cfg, err := BuildGlucosymEpisode(EpisodeConfig{ProfileID: 1, Seed: 3}, 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = &Fault{Type: FaultMax, StartStep: 30, Duration: 80, Magnitude: 8}
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	foundHypo := false
	for _, r := range tr.Records {
		if r.TrueBG < patient.HypoThreshold {
			foundHypo = true
			break
		}
	}
	if !foundHypo {
		t.Fatal("max-rate fault should drive the patient hypoglycemic")
	}
}

func TestSuspendFaultCausesHyperglycemia(t *testing.T) {
	cfg, err := BuildT1DSEpisode(EpisodeConfig{ProfileID: 1, Seed: 4}, 250)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = &Fault{Type: FaultSuspend, StartStep: 20, Duration: 200}
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	foundHyper := false
	for _, r := range tr.Records {
		if r.TrueBG > patient.HyperThreshold {
			foundHyper = true
			break
		}
	}
	if !foundHyper {
		t.Fatal("suspension fault should drive the patient hyperglycemic")
	}
}

func TestFaultMarksRecords(t *testing.T) {
	cfg, err := BuildGlucosymEpisode(EpisodeConfig{ProfileID: 2, Seed: 5}, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = &Fault{Type: FaultOverdose, StartStep: 40, Duration: 20, Magnitude: 3}
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tr.Records {
		wantActive := i >= 40 && i < 60
		if r.FaultActive != wantActive {
			t.Fatalf("step %d FaultActive = %v, want %v", i, r.FaultActive, wantActive)
		}
		if wantActive && r.Commanded > 0 && math.Abs(r.Rate-3*r.Commanded) > 1e-9 {
			t.Fatalf("step %d delivered %v, want 3x commanded %v", i, r.Rate, r.Commanded)
		}
	}
}

func TestStuckFaultFreezesRate(t *testing.T) {
	cfg, err := BuildGlucosymEpisode(EpisodeConfig{ProfileID: 3, Seed: 6}, 120)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = &Fault{Type: FaultStuck, StartStep: 50, Duration: 30}
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frozen := tr.Records[49].Rate
	for i := 50; i < 80; i++ {
		if math.Abs(tr.Records[i].Rate-frozen) > 1e-9 {
			t.Fatalf("step %d rate %v, want frozen %v", i, tr.Records[i].Rate, frozen)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	a := runEpisode(t, BuildGlucosymEpisode, EpisodeConfig{ProfileID: 4, Seed: 9, Scenario: ScenarioRandomFault}, 150)
	b := runEpisode(t, BuildGlucosymEpisode, EpisodeConfig{ProfileID: 4, Seed: 9, Scenario: ScenarioRandomFault}, 150)
	if len(a.Records) != len(b.Records) {
		t.Fatal("lengths differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs between identical runs", i)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("want error without patient/controller")
	}
	p, err := patient.NewGlucosymProfile(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Patient: p, Controller: controller.NewOpenAPS(1), Steps: 0}); err == nil {
		t.Fatal("want error for zero steps")
	}
}

func TestDerivativeSignals(t *testing.T) {
	tr := runEpisode(t, BuildGlucosymEpisode, EpisodeConfig{ProfileID: 5, Seed: 10}, 100)
	if tr.Records[0].DeltaBG != 0 || tr.Records[0].DeltaIOB != 0 {
		t.Fatal("first-step derivatives must be zero")
	}
	r1, r2 := tr.Records[1], tr.Records[2]
	wantDelta := (r2.CGM - r1.CGM) / tr.StepMin
	if math.Abs(r2.DeltaBG-wantDelta) > 1e-9 {
		t.Fatalf("DeltaBG = %v, want %v", r2.DeltaBG, wantDelta)
	}
}

func TestActionClassificationInTrace(t *testing.T) {
	tr := runEpisode(t, BuildGlucosymEpisode, EpisodeConfig{ProfileID: 6, Seed: 11}, 150)
	counts := map[controller.Action]int{}
	for _, r := range tr.Records {
		counts[r.Action]++
	}
	// A closed-loop OpenAPS episode exercises at least increase and
	// decrease actions.
	if counts[controller.ActionIncrease] == 0 || counts[controller.ActionDecrease] == 0 {
		t.Fatalf("action mix too degenerate: %v", counts)
	}
}

func TestIOBTracksDeliveries(t *testing.T) {
	// With a large constant overdose, IOB should become clearly positive.
	cfg, err := BuildGlucosymEpisode(EpisodeConfig{ProfileID: 7, Seed: 12}, 120)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = &Fault{Type: FaultMax, StartStep: 10, Duration: 60, Magnitude: 6}
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxIOB := 0.0
	for _, r := range tr.Records {
		maxIOB = math.Max(maxIOB, r.IOB)
	}
	if maxIOB < 1 {
		t.Fatalf("max IOB = %v under sustained overdose, want > 1 U", maxIOB)
	}
}

func TestRandomFaultBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		f := RandomFault(rng, 200)
		if f.StartStep < 8 || f.StartStep >= 100 {
			t.Fatalf("fault start %d out of range", f.StartStep)
		}
		if f.Duration <= 0 {
			t.Fatalf("fault duration %d", f.Duration)
		}
		switch f.Type {
		case FaultOverdose:
			if f.Magnitude < 2.5 || f.Magnitude > 5.5 {
				t.Fatalf("overdose magnitude %v", f.Magnitude)
			}
		case FaultUnderdose:
			if f.Magnitude < 0 || f.Magnitude > 0.3 {
				t.Fatalf("underdose magnitude %v", f.Magnitude)
			}
		}
	}
}

func TestFaultApplySemantics(t *testing.T) {
	f := Fault{Type: FaultOverdose, StartStep: 5, Duration: 2, Magnitude: 2}
	if got := f.Apply(4, 1, 0); got != 1 {
		t.Fatalf("inactive fault changed command: %v", got)
	}
	if got := f.Apply(5, 1, 0); got != 2 {
		t.Fatalf("overdose = %v, want 2", got)
	}
	if got := (Fault{Type: FaultSuspend, Duration: 1}).Apply(0, 3, 0); got != 0 {
		t.Fatalf("suspend = %v, want 0", got)
	}
	if got := (Fault{Type: FaultStuck, Duration: 1}).Apply(0, 3, 1.5); got != 1.5 {
		t.Fatalf("stuck = %v, want 1.5", got)
	}
	if got := (Fault{Type: FaultMax, Duration: 1, Magnitude: 9}).Apply(0, 0.1, 0); got != 9 {
		t.Fatalf("max = %v, want 9", got)
	}
}

func TestFaultTypeString(t *testing.T) {
	for ft, s := range map[FaultType]string{
		FaultOverdose: "overdose", FaultUnderdose: "underdose",
		FaultSuspend: "suspend", FaultStuck: "stuck", FaultMax: "max_rate",
		FaultType(77): "FaultType(77)",
	} {
		if ft.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(ft), ft.String(), s)
		}
	}
}

func TestRandomMealsRealistic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 50; i++ {
		meals := RandomMeals(rng, 1440) // 24 h
		if len(meals) < 2 || len(meals) > 6 {
			t.Fatalf("meals/day = %d", len(meals))
		}
		for _, m := range meals {
			if m.Grams < 25 || m.Grams > 60 {
				t.Fatalf("meal grams %v", m.Grams)
			}
			if m.StartMin < 30 || m.StartMin > 1440 {
				t.Fatalf("meal start %v", m.StartMin)
			}
		}
	}
}

func TestFaultyEpisodesProduceMoreHazards(t *testing.T) {
	var nominal, faulty int
	for seed := int64(0); seed < 8; seed++ {
		a := runEpisode(t, BuildGlucosymEpisode, EpisodeConfig{ProfileID: int(seed) % 8, Seed: 100 + seed}, 200)
		nominal += len(a.HazardSteps())
		b := runEpisode(t, BuildGlucosymEpisode, EpisodeConfig{ProfileID: int(seed) % 8, Seed: 100 + seed, Scenario: ScenarioRandomFault}, 200)
		faulty += len(b.HazardSteps())
	}
	if faulty <= nominal {
		t.Fatalf("fault injection should increase hazards: nominal %d faulty %d", nominal, faulty)
	}
}

func TestMealAnnouncementTriggersBolus(t *testing.T) {
	// With AnnounceMeals, the Basal-Bolus controller spikes the rate at the
	// meal start step.
	cfg, err := BuildT1DSEpisode(EpisodeConfig{ProfileID: 2, Seed: 21}, 150)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.AnnounceMeals {
		t.Fatal("T1DS episodes must announce meals")
	}
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	basal := cfg.Patient.BasalRate()
	for _, m := range cfg.Meals {
		step := int(m.StartMin / 5)
		if step >= len(tr.Records) {
			continue
		}
		// Find a bolus-scale rate at or just before the meal start.
		bolusSeen := false
		for s := step - 1; s <= step+1 && s < len(tr.Records); s++ {
			if s >= 0 && tr.Records[s].Commanded > 3*basal {
				bolusSeen = true
			}
		}
		if !bolusSeen {
			t.Fatalf("no bolus around meal at t=%.0f (step %d)", m.StartMin, step)
		}
	}
}

func TestGlucosymDoesNotAnnounceMeals(t *testing.T) {
	cfg, err := BuildGlucosymEpisode(EpisodeConfig{ProfileID: 2, Seed: 22}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AnnounceMeals {
		t.Fatal("OpenAPS episodes must not announce meals (reactive control)")
	}
}

func TestActionTolOverride(t *testing.T) {
	cfg, err := BuildGlucosymEpisode(EpisodeConfig{ProfileID: 3, Seed: 23}, 80)
	if err != nil {
		t.Fatal(err)
	}
	// With an enormous tolerance every non-stop action is "keep".
	cfg.ActionTol = 1000
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Records {
		if r.Action != controller.ActionKeep && r.Action != controller.ActionStop {
			t.Fatalf("action %v escaped the deadband", r.Action)
		}
	}
}

func TestSensorNoiseDisabled(t *testing.T) {
	cfg, err := BuildGlucosymEpisode(EpisodeConfig{ProfileID: 4, Seed: 24}, 60)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SensorNoiseStd = -1 // explicit zero-noise request
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Records {
		if r.CGM != r.TrueBG {
			t.Fatalf("CGM %v != BG %v with noise disabled", r.CGM, r.TrueBG)
		}
	}
}
