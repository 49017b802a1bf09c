package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/sim"
)

// Fig1bResult reproduces Fig. 1(b): an example APS simulation trace with the
// safety monitor's alerts ahead of the hazards.
type Fig1bResult struct {
	Simulator string
	Monitor   string
	Steps     []Fig1bStep
	// LeadSteps is the number of steps between the first alert and the first
	// hazard (positive = early warning).
	LeadSteps int
}

// Fig1bStep is one sampled step of the annotated trace.
type Fig1bStep struct {
	TimeMin float64
	BG      float64
	IOB     float64
	Rate    float64
	Alert   bool
	Hazard  bool
}

// Fig1b runs one faulty Glucosym episode and annotates it with the MLP
// monitor's alerts.
func Fig1b(a *Assets) (*Fig1bResult, error) {
	cfg, err := sim.BuildGlucosymEpisode(sim.EpisodeConfig{
		ProfileID: 0,
		Seed:      a.Config.Seed + 73,
		Scenario:  sim.ScenarioRandomFault,
	}, a.Config.Steps)
	if err != nil {
		return nil, err
	}
	tr, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.FromTraces([]*sim.Trace{tr}, a.Config.Window, a.Config.Horizon, a.Config.BGTarget)
	if err != nil {
		return nil, err
	}
	m, err := a.Sims[dataset.Glucosym].MLMonitor("mlp")
	if err != nil {
		return nil, err
	}
	verdicts, err := m.Classify(ds.Samples)
	if err != nil {
		return nil, err
	}
	res := &Fig1bResult{Simulator: "glucosym", Monitor: "mlp"}
	firstAlert, firstHazard := -1, -1
	for i, s := range ds.Samples {
		r := tr.Records[s.Step]
		alert := verdicts[i].Unsafe
		if alert && firstAlert < 0 {
			firstAlert = s.Step
		}
		if r.Hazard && firstHazard < 0 {
			firstHazard = s.Step
		}
		res.Steps = append(res.Steps, Fig1bStep{
			TimeMin: r.TimeMin,
			BG:      r.TrueBG,
			IOB:     r.IOB,
			Rate:    r.Rate,
			Alert:   alert,
			Hazard:  r.Hazard,
		})
	}
	if firstAlert >= 0 && firstHazard >= 0 {
		res.LeadSteps = firstHazard - firstAlert
	}
	return res, nil
}

// Render formats the annotated trace.
func (r *Fig1bResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig 1(b): Example APS Simulation Trace with Safety Monitor\n")
	fmt.Fprintf(&sb, "simulator=%s monitor=%s alert lead over first hazard: %d steps\n", r.Simulator, r.Monitor, r.LeadSteps)
	t := &table{header: []string{"t(min)", "BG", "IOB", "rate", "alert", "hazard"}}
	for i, s := range r.Steps {
		if i%5 != 0 {
			continue
		}
		mark := func(b bool) string {
			if b {
				return "*"
			}
			return ""
		}
		t.addRow(fmt.Sprintf("%.0f", s.TimeMin), f2(s.BG), f2(s.IOB), f2(s.Rate), mark(s.Alert), mark(s.Hazard))
	}
	sb.WriteString(t.String())
	return sb.String()
}
