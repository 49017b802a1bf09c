// Closedloop reproduces the scenario of Fig. 1(b): a faulty APS episode in
// which a trained safety monitor raises alerts ahead of the hazard.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/dataset"
	"repro/internal/monitor"
	"repro/internal/sim"
)

func main() {
	// Train a monitor on a fault-injection campaign.
	ds, err := dataset.Generate(dataset.CampaignConfig{
		Simulator:          dataset.Glucosym,
		Profiles:           6,
		EpisodesPerProfile: 4,
		Steps:              150,
		Seed:               11,
	})
	if err != nil {
		log.Fatal(err)
	}
	train, _, err := ds.Split(0.75)
	if err != nil {
		log.Fatal(err)
	}
	m, err := monitor.Train(train, monitor.TrainConfig{Arch: monitor.ArchMLP, Epochs: 15, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}

	// Run a fresh faulty episode the monitor has never seen.
	cfg, err := sim.BuildGlucosymEpisode(sim.EpisodeConfig{ProfileID: 9, Seed: 999, Scenario: sim.ScenarioRandomFault}, 150)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("episode: %s + %s, fault=%s at step %d for %d steps\n",
		tr.Simulator, tr.Controller, cfg.Fault.Type, cfg.Fault.StartStep, cfg.Fault.Duration)

	epDS, err := dataset.FromTraces([]*sim.Trace{tr}, 6, 12, 140)
	if err != nil {
		log.Fatal(err)
	}
	verdicts, err := m.Classify(epDS.Samples)
	if err != nil {
		log.Fatal(err)
	}

	// Render the trace as a sparkline-style chart with alert/hazard marks.
	fmt.Println("\n t(min)   BG(mg/dL)  monitor  hazard")
	firstAlert, firstHazard := -1, -1
	for i, s := range epDS.Samples {
		r := tr.Records[s.Step]
		if verdicts[i].Unsafe && firstAlert < 0 {
			firstAlert = s.Step
		}
		if r.Hazard && firstHazard < 0 {
			firstHazard = s.Step
		}
		if i%4 != 0 {
			continue
		}
		bar := int(r.TrueBG / 8)
		if bar > 45 {
			bar = 45
		}
		alert, hz := " ", " "
		if verdicts[i].Unsafe {
			alert = "!"
		}
		if r.Hazard {
			hz = "*"
		}
		fmt.Printf("%7.0f   %7.1f    %s       %s   |%s\n", r.TimeMin, r.TrueBG, alert, hz, strings.Repeat("█", bar))
	}
	if firstAlert >= 0 && firstHazard >= 0 {
		fmt.Printf("\nfirst alert at step %d, first hazard at step %d → lead time %d min\n",
			firstAlert, firstHazard, (firstHazard-firstAlert)*5)
	}
}
