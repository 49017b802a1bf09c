package patient

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ode"
)

func TestGlucosymSteadyStateAtBasal(t *testing.T) {
	g, err := NewGlucosymProfile(0)
	if err != nil {
		t.Fatal(err)
	}
	start := g.BG()
	basal := g.BasalRate()
	if basal <= 0 {
		t.Fatalf("basal rate = %v, want > 0", basal)
	}
	for i := 0; i < 288; i++ { // 24 h at 5-min steps
		g.Step(basal, 0, 5)
	}
	if math.Abs(g.BG()-start) > 2 {
		t.Fatalf("BG drifted from %v to %v under basal insulin", start, g.BG())
	}
}

func TestT1DSSteadyStateAtBasal(t *testing.T) {
	p, err := NewT1DSProfile(0)
	if err != nil {
		t.Fatal(err)
	}
	start := p.BG()
	basal := p.BasalRate()
	if basal <= 0 {
		t.Fatalf("basal rate = %v, want > 0", basal)
	}
	for i := 0; i < 288; i++ {
		p.Step(basal, 0, 5)
	}
	if math.Abs(p.BG()-start) > 5 {
		t.Fatalf("BG drifted from %v to %v under basal insulin", start, p.BG())
	}
}

func TestGlucosymMealRaisesBG(t *testing.T) {
	g, err := NewGlucosymProfile(1)
	if err != nil {
		t.Fatal(err)
	}
	basal := g.BasalRate()
	start := g.BG()
	// 50 g meal over 15 minutes, insulin held at basal.
	for i := 0; i < 36; i++ { // 3 h
		carbs := 0.0
		if i < 3 {
			carbs = 50.0 / 15.0
		}
		g.Step(basal, carbs, 5)
	}
	if g.BG() < start+40 {
		t.Fatalf("50 g meal raised BG only from %v to %v", start, g.BG())
	}
}

func TestT1DSMealRaisesBG(t *testing.T) {
	p, err := NewT1DSProfile(1)
	if err != nil {
		t.Fatal(err)
	}
	basal := p.BasalRate()
	start := p.BG()
	peak := start
	for i := 0; i < 36; i++ {
		carbs := 0.0
		if i < 3 {
			carbs = 50.0 / 15.0
		}
		p.Step(basal, carbs, 5)
		if p.BG() > peak {
			peak = p.BG()
		}
	}
	if peak < start+30 {
		t.Fatalf("50 g meal raised BG only from %v to %v", start, peak)
	}
}

func TestGlucosymInsulinLowersBG(t *testing.T) {
	g, err := NewGlucosymProfile(2)
	if err != nil {
		t.Fatal(err)
	}
	basal := g.BasalRate()
	start := g.BG()
	for i := 0; i < 24; i++ { // 2 h of 3× basal
		g.Step(3*basal, 0, 5)
	}
	if g.BG() >= start-10 {
		t.Fatalf("3x basal insulin dropped BG only from %v to %v", start, g.BG())
	}
}

func TestT1DSInsulinLowersBG(t *testing.T) {
	p, err := NewT1DSProfile(2)
	if err != nil {
		t.Fatal(err)
	}
	basal := p.BasalRate()
	start := p.BG()
	for i := 0; i < 36; i++ { // 3 h of 3× basal (s.c. absorption is slow)
		p.Step(3*basal, 0, 5)
	}
	if p.BG() >= start-10 {
		t.Fatalf("3x basal insulin dropped BG only from %v to %v", start, p.BG())
	}
}

func TestInsulinSuspensionRaisesBGT1DS(t *testing.T) {
	p, err := NewT1DSProfile(3)
	if err != nil {
		t.Fatal(err)
	}
	start := p.BG()
	for i := 0; i < 48; i++ { // 4 h with pump suspended
		p.Step(0, 0, 5)
	}
	if p.BG() <= start {
		t.Fatalf("suspension did not raise BG: %v → %v", start, p.BG())
	}
}

func TestBGNeverBelowFloor(t *testing.T) {
	// Massive overdose must saturate at the physiological floor, not go
	// negative — the hazard label fires long before.
	g, err := NewGlucosymProfile(4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewT1DSProfile(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 288; i++ {
		g.Step(50, 0, 5)
		p.Step(50, 0, 5)
		if g.BG() < 10 || p.BG() < 10 {
			t.Fatalf("BG below floor: glucosym %v t1ds %v", g.BG(), p.BG())
		}
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	for _, m := range []Model{
		mustGlucosym(t, 5), mustT1DS(t, 5),
	} {
		start := m.BG()
		m.Step(20, 3, 5)
		m.Step(20, 3, 5)
		if m.BG() == start {
			t.Fatalf("%s: state did not move", m.Name())
		}
		m.Reset()
		if m.BG() != start {
			t.Fatalf("%s: Reset gave BG %v, want %v", m.Name(), m.BG(), start)
		}
	}
}

func mustGlucosym(t *testing.T, id int) *Glucosym {
	t.Helper()
	g, err := NewGlucosymProfile(id)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustT1DS(t *testing.T, id int) *T1DS {
	t.Helper()
	p, err := NewT1DSProfile(id)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfilesAreDeterministicAndDistinct(t *testing.T) {
	a, err := GlucosymProfile(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GlucosymProfile(7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("GlucosymProfile must be deterministic")
	}
	c, err := GlucosymProfile(8)
	if err != nil {
		t.Fatal(err)
	}
	if a.P3 == c.P3 && a.Gb == c.Gb {
		t.Fatal("distinct profiles should differ")
	}

	ta, err := T1DSProfile(7)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := T1DSProfile(7)
	if err != nil {
		t.Fatal(err)
	}
	if ta != tb {
		t.Fatal("T1DSProfile must be deterministic")
	}
}

func TestProfileRangeValidation(t *testing.T) {
	if _, err := GlucosymProfile(-1); err == nil {
		t.Fatal("want error for negative profile")
	}
	if _, err := GlucosymProfile(GlucosymProfileCount); err == nil {
		t.Fatal("want error for out-of-range profile")
	}
	if _, err := T1DSProfile(99); err == nil {
		t.Fatal("want error for out-of-range profile")
	}
}

func TestAllProfilesProduceViablePatients(t *testing.T) {
	for id := 0; id < GlucosymProfileCount; id++ {
		g := mustGlucosym(t, id)
		if g.BG() < 90 || g.BG() > 170 {
			t.Errorf("glucosym profile %d starts at BG %v", id, g.BG())
		}
		if b := g.BasalRate(); b <= 0 || b > 5 {
			t.Errorf("glucosym profile %d basal %v U/h", id, b)
		}
	}
	for id := 0; id < T1DSProfileCount; id++ {
		p := mustT1DS(t, id)
		if p.BG() < 90 || p.BG() > 170 {
			t.Errorf("t1ds profile %d starts at BG %v", id, p.BG())
		}
		if b := p.BasalRate(); b <= 0 || b > 5 {
			t.Errorf("t1ds profile %d basal %v U/h", id, b)
		}
	}
}

func TestTwoSimulatorsHaveDifferentDynamics(t *testing.T) {
	// The paper's Fig 4 exploits the different BG distributions of the two
	// simulators. Check the step responses differ materially.
	g, p := mustGlucosym(t, 0), mustT1DS(t, 0)
	gb, pb := g.BasalRate(), p.BasalRate()
	var gPeak, pPeak float64
	for i := 0; i < 24; i++ {
		carbs := 0.0
		if i < 3 {
			carbs = 60.0 / 15.0
		}
		g.Step(gb, carbs, 5)
		p.Step(pb, carbs, 5)
		gPeak = math.Max(gPeak, g.BG())
		pPeak = math.Max(pPeak, p.BG())
	}
	if math.Abs(gPeak-pPeak) < 1 {
		t.Fatalf("simulators look identical: peaks %v vs %v", gPeak, pPeak)
	}
}

// totalCarbs returns the total grams in the schedule.
func totalCarbs(s MealSchedule) float64 {
	var g float64
	for _, m := range s {
		g += m.Grams
	}
	return g
}

func TestMealScheduleRate(t *testing.T) {
	s := MealSchedule{
		{StartMin: 60, Grams: 45, DurationMin: 15},
		{StartMin: 300, Grams: 30, DurationMin: 10},
	}
	if got := s.Rate(0); got != 0 {
		t.Fatalf("Rate(0) = %v", got)
	}
	if got := s.Rate(65); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Rate(65) = %v, want 3", got)
	}
	if got := s.Rate(75); got != 0 {
		t.Fatalf("Rate(75) = %v, want 0 (meal over)", got)
	}
	if got := s.Rate(305); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Rate(305) = %v, want 3", got)
	}
	if got := totalCarbs(s); got != 75 {
		t.Fatalf("total carbs = %v, want 75", got)
	}
	// Zero-duration meals absorb over 1 minute rather than dividing by zero.
	z := MealSchedule{{StartMin: 0, Grams: 10}}
	if got := z.Rate(0.5); math.Abs(got-10) > 1e-12 {
		t.Fatalf("zero-duration Rate = %v, want 10", got)
	}
}

// Total meal rate integrated over time equals total grams.
func TestMealScheduleConservesCarbs(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		s := MealSchedule{
			{StartMin: float64(seed % 100), Grams: 20 + float64(seed%40), DurationMin: 10 + float64(seed%20)},
		}
		var integral float64
		dt := 0.5
		for t := 0.0; t < 300; t += dt {
			integral += s.Rate(t) * dt
		}
		return math.Abs(integral-totalCarbs(s)) < 1e-6*totalCarbs(s)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIOBDecaysToZero(t *testing.T) {
	c := IOBCalculator{DIA: 120}
	c.Record(0, 2)
	if got := c.IOB(0); math.Abs(got-2) > 1e-12 {
		t.Fatalf("IOB(0) = %v, want 2", got)
	}
	if got := c.IOB(60); math.Abs(got-1) > 1e-12 {
		t.Fatalf("IOB(60) = %v, want 1 (half decayed)", got)
	}
	if got := c.IOB(120); got != 0 {
		t.Fatalf("IOB(120) = %v, want 0", got)
	}
	if got := c.IOB(500); got != 0 {
		t.Fatalf("IOB(500) = %v, want 0", got)
	}
}

func TestIOBNegativeDeliveries(t *testing.T) {
	c := IOBCalculator{DIA: 100}
	c.Record(0, -1) // suspension below basal
	if got := c.IOB(50); got >= 0 {
		t.Fatalf("IOB = %v, want negative", got)
	}
}

func TestIOBSuperposition(t *testing.T) {
	c := IOBCalculator{DIA: 100}
	c.Record(0, 1)
	c.Record(50, 1)
	want := 1*(1-60.0/100) + 1*(1-10.0/100)
	if got := c.IOB(60); math.Abs(got-want) > 1e-12 {
		t.Fatalf("IOB(60) = %v, want %v", got, want)
	}
}

func TestIOBPrunesExpiredEntries(t *testing.T) {
	c := IOBCalculator{DIA: 10}
	for i := 0; i < 1000; i++ {
		c.Record(float64(i), 0.1)
		c.IOB(float64(i))
	}
	if len(c.entries) > 11 {
		t.Fatalf("expired entries not pruned: %d retained", len(c.entries))
	}
}

func TestIOBZeroUnitIgnored(t *testing.T) {
	c := IOBCalculator{}
	c.Record(0, 0)
	if len(c.entries) != 0 {
		t.Fatal("zero-unit record should be dropped")
	}
	if c.dia() != defaultDIA {
		t.Fatalf("default DIA = %v", c.dia())
	}
}

func TestEulerAndRK4Agree(t *testing.T) {
	// The plant must be insensitive to the integration scheme at the 1-min
	// internal step (sanity check on stiffness).
	p0, err := GlucosymProfile(0)
	if err != nil {
		t.Fatal(err)
	}
	a := NewGlucosym(p0, ode.RK4)
	b := NewGlucosym(p0, ode.Euler)
	basal := a.BasalRate()
	for i := 0; i < 60; i++ {
		carbs := 0.0
		if i == 10 {
			carbs = 8
		}
		a.Step(2*basal, carbs, 5)
		b.Step(2*basal, carbs, 5)
	}
	if math.Abs(a.BG()-b.BG()) > 2 {
		t.Fatalf("integrators disagree: RK4 %v vs Euler %v", a.BG(), b.BG())
	}
}
