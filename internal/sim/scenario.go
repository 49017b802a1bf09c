package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/patient"
)

// RandomMeals draws a realistic meal scenario for an episode spanning
// totalMin minutes: a meal roughly every 4–6 hours of 30–80 g absorbed over
// 10–20 minutes, starting 30–90 minutes into the episode.
func RandomMeals(rng *rand.Rand, totalMin float64) patient.MealSchedule {
	var meals patient.MealSchedule
	t := 30 + 60*rng.Float64()
	for t < totalMin {
		meals = append(meals, patient.Meal{
			StartMin:    t,
			Grams:       25 + 35*rng.Float64(),
			DurationMin: 10 + 10*rng.Float64(),
		})
		t += 240 + 120*rng.Float64()
	}
	return meals
}

// IrregularMeals draws a deliberately erratic schedule: meals anywhere from
// 2 to 8 hours apart, 10–100 g each, absorbed over 5–30 minutes — the
// missed-snack / double-dinner patterns a controller tuned on regular meals
// handles worst.
func IrregularMeals(rng *rand.Rand, totalMin float64) patient.MealSchedule {
	var meals patient.MealSchedule
	t := 20 + 100*rng.Float64()
	for t < totalMin {
		meals = append(meals, patient.Meal{
			StartMin:    t,
			Grams:       10 + 90*rng.Float64(),
			DurationMin: 5 + 25*rng.Float64(),
		})
		t += 120 + 360*rng.Float64()
	}
	return meals
}

// EpisodeConfig bundles the knobs a campaign varies per episode.
type EpisodeConfig struct {
	ProfileID int
	Seed      int64
	// Scenario names the registered scenario generator applied to the
	// episode. Empty selects ScenarioNominal.
	Scenario string
}

// Builtin scenario names. Every name is registered in the default Scenarios
// registry; campaigns reference them through ScenarioMix.
const (
	ScenarioNominal        = "nominal"
	ScenarioOverdose       = "overdose"
	ScenarioUnderdose      = "underdose"
	ScenarioSuspend        = "suspend"
	ScenarioStuck          = "stuck"
	ScenarioMaxRate        = "max_rate"
	ScenarioRandomFault    = "random_fault"
	ScenarioSensorDropout  = "sensor_dropout"
	ScenarioSensorDrift    = "sensor_drift"
	ScenarioMissedMeal     = "missed_meal"
	ScenarioIrregularMeals = "irregular_meals"
	ScenarioCompound       = "compound"
)

// Scenario is a named episode generator: Apply perturbs a fully built
// nominal episode Config (meals drawn, patient/controller wired, Steps and
// StepMin set) into the scenario's regime, drawing any randomness from rng.
// Apply must be deterministic given (rng state, cfg) — campaign determinism
// rests on it.
type Scenario struct {
	Name        string
	Description string
	Apply       func(rng *rand.Rand, cfg *Config)
}

// ScenarioRegistry maps scenario names to generators. The zero value is not
// usable; construct with NewScenarioRegistry. All methods are safe for
// concurrent use.
type ScenarioRegistry struct {
	mu     sync.RWMutex
	byName map[string]Scenario
	order  []string
}

// NewScenarioRegistry returns an empty registry.
func NewScenarioRegistry() *ScenarioRegistry {
	return &ScenarioRegistry{byName: make(map[string]Scenario)}
}

// Register adds a scenario under its name. Empty names, nil Apply funcs and
// duplicate registrations are rejected.
func (r *ScenarioRegistry) Register(s Scenario) error {
	if s.Name == "" {
		return fmt.Errorf("sim: scenario with empty name")
	}
	if s.Apply == nil {
		return fmt.Errorf("sim: scenario %q has no Apply func", s.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[s.Name]; ok {
		return fmt.Errorf("sim: scenario %q already registered", s.Name)
	}
	r.byName[s.Name] = s
	r.order = append(r.order, s.Name)
	return nil
}

// Lookup returns the named scenario or an error listing the known names.
func (r *ScenarioRegistry) Lookup(name string) (Scenario, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byName[name]
	if !ok {
		return Scenario{}, fmt.Errorf("sim: unknown scenario %q (known: %s)", name, strings.Join(r.sortedNamesLocked(), ", "))
	}
	return s, nil
}

func (r *ScenarioRegistry) sortedNamesLocked() []string {
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	return names
}

// Scenarios is the default registry holding every builtin scenario.
var Scenarios = builtinScenarios()

func builtinScenarios() *ScenarioRegistry {
	r := NewScenarioRegistry()
	add := func(name, desc string, apply func(rng *rand.Rand, cfg *Config)) {
		if err := r.Register(Scenario{Name: name, Description: desc, Apply: apply}); err != nil {
			panic(err) // unreachable: builtin names are distinct literals
		}
	}
	add(ScenarioNominal, "no fault, regular meals, white sensor noise only",
		func(rng *rand.Rand, cfg *Config) {})
	faultScenario := func(ft FaultType, desc string) {
		add(ft.String(), desc, func(rng *rand.Rand, cfg *Config) {
			f := FaultOfType(rng, cfg.Steps, ft)
			cfg.Fault = &f
		})
	}
	faultScenario(FaultOverdose, "pump multiplies commanded insulin by 2.5–5.5x")
	faultScenario(FaultUnderdose, "pump delivers under 30% of the commanded insulin")
	faultScenario(FaultSuspend, "pump silently stops delivering")
	faultScenario(FaultStuck, "pump freezes at the rate delivered when the fault began")
	faultScenario(FaultMax, "hijacked pump runs at 5–10 U/h regardless of commands")
	add(ScenarioRandomFault, "one uniformly drawn fault type (the legacy faulty-episode rule)",
		func(rng *rand.Rand, cfg *Config) {
			f := RandomFault(rng, cfg.Steps)
			cfg.Fault = &f
		})
	add(ScenarioSensorDropout, "CGM with interstitial lag and 5–15% dropout (repeated readings)",
		func(rng *rand.Rand, cfg *Config) {
			cfg.Sensor = &CGMModel{
				LagMin:      8 + 4*rng.Float64(),
				DropoutProb: 0.05 + 0.10*rng.Float64(),
			}
		})
	add(ScenarioSensorDrift, "CGM with interstitial lag and a drifting calibration bias",
		func(rng *rand.Rand, cfg *Config) {
			cfg.Sensor = &CGMModel{
				LagMin:   8 + 4*rng.Float64(),
				DriftStd: 0.1 + 0.2*rng.Float64(),
			}
		})
	add(ScenarioMissedMeal, "one meal is missed: eaten unannounced (announcement-driven controllers) or skipped entirely (sensor-only controllers)",
		func(rng *rand.Rand, cfg *Config) {
			if len(cfg.Meals) == 0 {
				return
			}
			i := rng.Intn(len(cfg.Meals))
			if cfg.AnnounceMeals {
				// The riskier miss for a bolus-on-announcement controller:
				// carbs are absorbed but never dosed for.
				cfg.Meals[i].Unannounced = true
			} else {
				// A sensor-only controller never hears announcements, so the
				// meaningful miss is the patient skipping the meal the basal
				// pattern implicitly expects.
				cfg.Meals = append(cfg.Meals[:i:i], cfg.Meals[i+1:]...)
			}
		})
	add(ScenarioIrregularMeals, "erratic meal timing and sizing (2–8 h apart, 10–100 g)",
		func(rng *rand.Rand, cfg *Config) {
			cfg.Meals = IrregularMeals(rng, float64(cfg.Steps)*cfg.StepMin)
		})
	add(ScenarioCompound, "random fault on top of a degraded, noisy sensor",
		func(rng *rand.Rand, cfg *Config) {
			f := RandomFault(rng, cfg.Steps)
			cfg.Fault = &f
			cfg.Sensor = &CGMModel{
				LagMin:      8 + 4*rng.Float64(),
				DriftStd:    0.1 + 0.2*rng.Float64(),
				DropoutProb: 0.02 + 0.08*rng.Float64(),
			}
			cfg.SensorNoiseStd = 3 + 2*rng.Float64()
		})
	return r
}

// ScenarioShare is one weighted entry of a ScenarioMix.
type ScenarioShare struct {
	Name   string
	Weight float64
}

// ScenarioMix is a weighted composition of named scenarios declared on a
// campaign. Weights are shares, not probabilities: Assign apportions the
// episodes of a profile across the mix deterministically (no sampling), so
// a 1:1 mix of nominal and random_fault reproduces the paper's exact
// half-faulty campaigns.
type ScenarioMix []ScenarioShare

// DefaultScenarioMix is the paper's campaign shape: equal parts nominal and
// randomly faulted episodes.
func DefaultScenarioMix() ScenarioMix {
	return ScenarioMix{{Name: ScenarioNominal, Weight: 1}, {Name: ScenarioRandomFault, Weight: 1}}
}

// ParseScenarioMixFlag parses a CLI -scenarios flag value against the
// default registry: an empty value returns a nil mix without error, so
// callers keep their default (the CampaignConfig fill installs
// DefaultScenarioMix for nil).
func ParseScenarioMixFlag(s string) (ScenarioMix, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	return ParseScenarioMix(s, nil)
}

// ParseScenarioMix parses the CLI mix syntax "name[:weight],name[:weight],…"
// (e.g. "nominal:2,random_fault,sensor_drift:0.5"). Omitted weights default
// to 1. Names are validated against reg (the default Scenarios registry when
// reg is nil).
func ParseScenarioMix(s string, reg *ScenarioRegistry) (ScenarioMix, error) {
	if reg == nil {
		reg = Scenarios
	}
	var mix ScenarioMix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weight := part, 1.0
		if i := strings.IndexByte(part, ':'); i >= 0 {
			name = strings.TrimSpace(part[:i])
			w, err := strconv.ParseFloat(strings.TrimSpace(part[i+1:]), 64)
			if err != nil {
				return nil, fmt.Errorf("sim: scenario mix entry %q: bad weight: %w", part, err)
			}
			weight = w
		}
		mix = append(mix, ScenarioShare{Name: name, Weight: weight})
	}
	if err := mix.Validate(reg); err != nil {
		return nil, err
	}
	return mix, nil
}

// Validate checks the mix is non-empty, every name resolves in reg (the
// default registry when nil), no name repeats, and every weight is positive.
func (m ScenarioMix) Validate(reg *ScenarioRegistry) error {
	if reg == nil {
		reg = Scenarios
	}
	if len(m) == 0 {
		return fmt.Errorf("sim: empty scenario mix")
	}
	seen := make(map[string]bool, len(m))
	for _, s := range m {
		if _, err := reg.Lookup(s.Name); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("sim: scenario %q repeated in mix", s.Name)
		}
		seen[s.Name] = true
		if s.Weight <= 0 {
			return fmt.Errorf("sim: scenario %q has non-positive weight %v", s.Name, s.Weight)
		}
	}
	return nil
}

// Normalized returns the mix with weights scaled to sum to 1 (order kept).
func (m ScenarioMix) Normalized() ScenarioMix {
	var sum float64
	for _, s := range m {
		sum += s.Weight
	}
	if sum == 0 {
		return append(ScenarioMix(nil), m...)
	}
	out := make(ScenarioMix, len(m))
	for i, s := range m {
		out[i] = ScenarioShare{Name: s.Name, Weight: s.Weight / sum}
	}
	return out
}

// String renders the canonical "name:weight,…" form (normalized weights);
// it is the representation campaign fingerprints hash.
func (m ScenarioMix) String() string {
	norm := m.Normalized()
	parts := make([]string, len(norm))
	for i, s := range norm {
		parts[i] = fmt.Sprintf("%s:%g", s.Name, s.Weight)
	}
	return strings.Join(parts, ",")
}

// Assign apportions n episode slots across the mix entries with a smooth
// weighted round-robin: slot k gets the entry whose accumulated share is
// furthest ahead, so counts track the normalized weights within one episode
// at every prefix and the interleaving is deterministic. Returns the mix
// index per slot.
func (m ScenarioMix) Assign(n int) []int {
	norm := m.Normalized()
	out := make([]int, n)
	credit := make([]float64, len(norm))
	for k := 0; k < n; k++ {
		best := 0
		for i := range norm {
			credit[i] += norm[i].Weight
			if credit[i] > credit[best]+1e-12 {
				best = i
			}
		}
		out[k] = best
		credit[best]--
	}
	return out
}

// resolveScenario maps an EpisodeConfig to its scenario: the named one when
// set, otherwise ScenarioNominal.
func resolveScenario(ec EpisodeConfig) (Scenario, error) {
	name := ec.Scenario
	if name == "" {
		name = ScenarioNominal
	}
	return Scenarios.Lookup(name)
}

// BuildGlucosymEpisode constructs a Config pairing a Glucosym patient with an
// OpenAPS controller, as in the paper's first case study.
func BuildGlucosymEpisode(ec EpisodeConfig, steps int) (Config, error) {
	p, err := patient.NewGlucosymProfile(ec.ProfileID)
	if err != nil {
		return Config{}, err
	}
	scen, err := resolveScenario(ec)
	if err != nil {
		return Config{}, err
	}
	rng := rand.New(rand.NewSource(ec.Seed))
	cfg := Config{
		Patient:    p,
		Controller: controllerForGlucosym(p),
		StepMin:    5,
		Steps:      steps,
		Meals:      RandomMeals(rng, float64(steps)*5),
		Seed:       ec.Seed + 7919,
		Scenario:   scen.Name,
	}
	scen.Apply(rng, &cfg)
	return cfg, nil
}

// BuildT1DSEpisode constructs a Config pairing a T1DS patient with a
// Basal-Bolus controller, as in the paper's second case study.
func BuildT1DSEpisode(ec EpisodeConfig, steps int) (Config, error) {
	p, err := patient.NewT1DSProfile(ec.ProfileID)
	if err != nil {
		return Config{}, err
	}
	scen, err := resolveScenario(ec)
	if err != nil {
		return Config{}, err
	}
	rng := rand.New(rand.NewSource(ec.Seed))
	cfg := Config{
		Patient:       p,
		Controller:    controllerForT1DS(p),
		StepMin:       5,
		Steps:         steps,
		Meals:         RandomMeals(rng, float64(steps)*5),
		AnnounceMeals: true,
		Seed:          ec.Seed + 104729,
		Scenario:      scen.Name,
	}
	scen.Apply(rng, &cfg)
	return cfg, nil
}
