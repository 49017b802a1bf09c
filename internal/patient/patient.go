// Package patient implements the virtual diabetic patients behind the two
// closed-loop APS case studies of the paper:
//
//   - Glucosym: an extended Bergman minimal model (the Glucosym simulator the
//     paper pairs with the OpenAPS controller is itself a compartmental
//     insulin–glucose ODE of this family);
//   - T1DS: a Hovorka-style two-compartment model standing in for the
//     UVA-Padova T1DS2013 simulator, with deliberately different structure
//     and blood-glucose distribution (the property Fig. 4 of the paper
//     relies on).
//
// Both expose the same Model interface: advance by dt minutes under an
// insulin infusion (U/h) and a carbohydrate ingestion rate (g/min), and
// report blood glucose in mg/dL.
package patient

import "fmt"

// Model is a virtual patient plant.
type Model interface {
	// Name identifies the simulator family ("glucosym" or "t1ds").
	Name() string
	// ProfileID identifies which of the 20 patient profiles this is.
	ProfileID() int
	// BG returns the current blood glucose in mg/dL.
	BG() float64
	// BasalRate returns the insulin infusion (U/h) that holds the patient at
	// its target steady state.
	BasalRate() float64
	// Step advances the plant by dt minutes with the given insulin infusion
	// (U/h, clamped at 0) and carbohydrate ingestion rate (g/min).
	Step(insulinUPerH, carbsGPerMin, dt float64)
	// Reset restores the initial steady state.
	Reset()
}

// Hazard thresholds shared across the repo (mg/dL). The paper's rule 10 uses
// BG < 70 for hypoglycemia; 180 is the standard hyperglycemia threshold.
const (
	HypoThreshold  = 70
	HyperThreshold = 180
)

// Meal is a carbohydrate intake event, absorbed at a constant rate over its
// duration.
type Meal struct {
	StartMin    float64 // minutes from episode start
	Grams       float64
	DurationMin float64
	// Unannounced marks a meal the patient eats without telling the
	// controller — announcement-driven controllers never see its carbs
	// (the missed-bolus scenario). Absorption is unaffected.
	Unannounced bool
}

// MealSchedule is a set of meals within an episode.
type MealSchedule []Meal

// Rate returns the carbohydrate ingestion rate (g/min) at time t (minutes).
func (s MealSchedule) Rate(t float64) float64 {
	var r float64
	for _, m := range s {
		d := m.DurationMin
		if d <= 0 {
			d = 1
		}
		if t >= m.StartMin && t < m.StartMin+d {
			r += m.Grams / d
		}
	}
	return r
}

func validateProfile(id, n int) error {
	if id < 0 || id >= n {
		return fmt.Errorf("patient: profile id %d out of range [0,%d)", id, n)
	}
	return nil
}
