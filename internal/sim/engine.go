// Package sim runs closed-loop APS episodes: a virtual patient, a CGM sensor
// with noise, a controller, a pump with optional fault/attack injection, and
// trace recording. Traces feed both the rule-based monitor (directly) and
// the dataset builder that trains the ML monitors.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/controller"
	"repro/internal/patient"
)

// Guard reviews issued control commands before they reach the pump — the
// safety-monitor role of Fig. 1(a) in the paper: "evaluate whether the
// control commands issued in a given system context might be unsafe … and
// stop their delivery to the actuators". Window holds the most recent
// monitor-visible records (oldest first, at most the guard's window size);
// the guard returns the rate to deliver.
type Guard interface {
	// Review may veto or modify the proposed rate (U/h). vetoed reports
	// whether the guard intervened.
	Review(window []Record, proposed float64) (rate float64, vetoed bool)
	// WindowSize is the number of recent records the guard wants to see.
	WindowSize() int
}

// Config describes one closed-loop episode.
type Config struct {
	Patient    patient.Model
	Controller controller.Controller
	// StepMin is the control/sampling period in minutes (default 5, as in
	// the paper: "each simulation step equals 5 minutes").
	StepMin float64
	// Steps is the episode length in control steps.
	Steps int
	// Meals is the carbohydrate scenario.
	Meals patient.MealSchedule
	// AnnounceMeals passes meal carbs to the controller at the start step
	// (required by Basal-Bolus, ignored by OpenAPS).
	AnnounceMeals bool
	// SensorNoiseStd is the CGM measurement noise standard deviation in
	// mg/dL (default 2).
	SensorNoiseStd float64
	// Sensor, when non-nil, adds interstitial lag, calibration drift and
	// dropout to the CGM on top of the white noise.
	Sensor *CGMModel
	// Fault, when non-nil, corrupts the issued control commands.
	Fault *Fault
	// Guard, when non-nil, reviews every (possibly faulted) command before
	// delivery and may veto it.
	Guard Guard
	// DIA is the insulin-on-board decay horizon in minutes (default 240).
	DIA float64
	// ActionTol is the rate deadband (U/h) under which a rate transition is
	// classified as keep_insulin rather than increase/decrease. Zero selects
	// 10% of the patient's basal rate; CGM noise makes commanded rates
	// jitter by small amounts that are not meaningful dose changes.
	ActionTol float64
	// Seed drives the sensor-noise RNG.
	Seed int64
	// Scenario is the name of the scenario generator that shaped this
	// episode (provenance only; empty for hand-built configs).
	Scenario string
}

// Record is one sampled step of a trace: exactly the multivariate time-series
// the paper's monitors observe (sensor values and control commands), plus
// ground truth for labeling.
type Record struct {
	Step    int
	TimeMin float64

	// Monitor-visible signals.
	CGM       float64 // sensed glucose (mg/dL)
	IOB       float64 // estimated insulin on board (U)
	Rate      float64 // issued (possibly faulted) control command (U/h)
	Action    controller.Action
	DeltaBG   float64 // CGM derivative (mg/dL/min)
	DeltaIOB  float64 // IOB derivative (U/min)
	CarbsRate float64 // ingestion (g/min), context signal

	// Ground truth (not visible to monitors).
	TrueBG      float64
	Commanded   float64 // pre-fault controller output (U/h)
	FaultActive bool
	Hazard      bool // TrueBG outside [Hypo, Hyper] at this step
	// Vetoed marks commands the safety guard blocked before delivery.
	Vetoed bool
}

// Trace is a complete episode.
type Trace struct {
	Simulator  string
	Controller string
	ProfileID  int
	StepMin    float64
	Fault      *Fault
	// Scenario names the scenario generator that shaped the episode
	// (empty for hand-built configs).
	Scenario string
	Records  []Record
}

// HazardSteps returns the indices of hazardous steps.
func (t *Trace) HazardSteps() []int {
	var out []int
	for i, r := range t.Records {
		if r.Hazard {
			out = append(out, i)
		}
	}
	return out
}

// Run executes one closed-loop episode.
func Run(cfg Config) (*Trace, error) {
	if cfg.Patient == nil || cfg.Controller == nil {
		return nil, errors.New("sim: config needs Patient and Controller")
	}
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("sim: steps = %d, want > 0", cfg.Steps)
	}
	stepMin := cfg.StepMin
	if stepMin <= 0 {
		stepMin = 5
	}
	noiseStd := cfg.SensorNoiseStd
	if noiseStd < 0 {
		noiseStd = 0
	} else if noiseStd == 0 {
		noiseStd = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	cfg.Patient.Reset()
	cfg.Controller.Reset()
	iob := patient.IOBCalculator{DIA: cfg.DIA}
	basal := cfg.Patient.BasalRate()
	actionTol := cfg.ActionTol
	if actionTol <= 0 {
		actionTol = 0.1 * basal
	}

	tr := &Trace{
		Simulator:  cfg.Patient.Name(),
		Controller: cfg.Controller.Name(),
		ProfileID:  cfg.Patient.ProfileID(),
		StepMin:    stepMin,
		Fault:      cfg.Fault,
		Scenario:   cfg.Scenario,
		Records:    make([]Record, 0, cfg.Steps),
	}

	prevCGM := 0.0
	prevIOB := 0.0
	prevDelivered := basal
	stuckRate := basal
	announced := make(map[int]bool, len(cfg.Meals))

	if cfg.Sensor != nil {
		cfg.Sensor.Reset()
	}
	for step := 0; step < cfg.Steps; step++ {
		t := float64(step) * stepMin
		var cgm float64
		if cfg.Sensor != nil {
			cgm = cfg.Sensor.Read(rng, cfg.Patient.BG(), stepMin, noiseStd)
		} else {
			cgm = cfg.Patient.BG() + rng.NormFloat64()*noiseStd
		}
		if cgm < 0 {
			cgm = 0
		}
		curIOB := iob.IOB(t)

		// Meal announcement covers meals starting within this step.
		var carbsAnnounced float64
		if cfg.AnnounceMeals {
			for mi, m := range cfg.Meals {
				if m.Unannounced {
					continue
				}
				if !announced[mi] && m.StartMin >= t && m.StartMin < t+stepMin {
					carbsAnnounced += m.Grams
					announced[mi] = true
				}
			}
		}

		commanded := cfg.Controller.Decide(controller.Observation{
			TimeMin:        t,
			BG:             cgm,
			PrevBG:         prevCGM,
			IOB:            curIOB,
			LastRate:       prevDelivered,
			AnnouncedCarbs: carbsAnnounced,
			StepMin:        stepMin,
		})
		if commanded < 0 {
			commanded = 0
		}

		delivered := commanded
		faultActive := false
		if cfg.Fault != nil {
			if cfg.Fault.Active(step) {
				faultActive = true
				if step == cfg.Fault.StartStep {
					stuckRate = prevDelivered
				}
				delivered = cfg.Fault.Apply(step, commanded, stuckRate)
				if delivered < 0 {
					delivered = 0
				}
			}
		}

		action := controller.Classify(prevDelivered, delivered, actionTol)
		carbsRate := cfg.Meals.Rate(t)

		rec := Record{
			Step:        step,
			TimeMin:     t,
			CGM:         cgm,
			IOB:         curIOB,
			Rate:        delivered,
			Action:      action,
			CarbsRate:   carbsRate,
			TrueBG:      cfg.Patient.BG(),
			Commanded:   commanded,
			FaultActive: faultActive,
			Hazard:      cfg.Patient.BG() < patient.HypoThreshold || cfg.Patient.BG() > patient.HyperThreshold,
		}
		if step > 0 {
			rec.DeltaBG = (cgm - prevCGM) / stepMin
			rec.DeltaIOB = (curIOB - prevIOB) / stepMin
		}

		// The safety guard reviews the issued command in its window context
		// and may stop it before it reaches the pump.
		if cfg.Guard != nil {
			w := cfg.Guard.WindowSize()
			from := len(tr.Records) - (w - 1)
			if from < 0 {
				from = 0
			}
			window := make([]Record, 0, w)
			window = append(window, tr.Records[from:]...)
			window = append(window, rec)
			if newRate, vetoed := cfg.Guard.Review(window, delivered); vetoed {
				delivered = newRate
				if delivered < 0 {
					delivered = 0
				}
				rec.Vetoed = true
				rec.Rate = delivered
				rec.Action = controller.Classify(prevDelivered, delivered, actionTol)
			}
		}

		// Deliveries above/below scheduled basal accrue IOB.
		iob.Record(t, (delivered-basal)*stepMin/60)
		tr.Records = append(tr.Records, rec)

		// Advance the plant: meals absorb continuously per the schedule.
		cfg.Patient.Step(delivered, carbsRate, stepMin)

		prevCGM = cgm
		prevIOB = curIOB
		prevDelivered = delivered
	}
	return tr, nil
}
