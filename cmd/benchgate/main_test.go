package main

import (
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
BenchmarkRunCampaign/serial-8         	       2	 500000000 ns/op	 1000000 B/op	    5000 allocs/op
BenchmarkRunCampaign/serial-8         	       2	 480000000 ns/op	 1100000 B/op	    5100 allocs/op
BenchmarkRunCampaign/parallel8-8      	       5	 100000000 ns/op	 1200000 B/op	    6000 allocs/op
BenchmarkTrainMLP/serial-8            	       3	 200000000 ns/op	  500000 B/op	     700 allocs/op
BenchmarkMatMul/serial/n=64-8         	      20	    100000 ns/op	  50.00 MB/s
BenchmarkMatMul/serial/n=64-8         	      20	    120000 ns/op	  40.00 MB/s
BenchmarkTable3-8                     	       1	 900000000 ns/op	       0.95 mlp-glucosym-F1
PASS
ok  	repro	12.3s
`

func TestParseBenchOutput(t *testing.T) {
	benches, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	// GOMAXPROCS suffixes are stripped, repetitions aggregate by minimum.
	serial, ok := benches["BenchmarkRunCampaign/serial"]
	if !ok {
		t.Fatalf("missing normalized serial benchmark; have %v", benches)
	}
	if serial.Runs != 2 {
		t.Fatalf("serial runs = %d, want 2", serial.Runs)
	}
	if serial.Metrics["ns/op"] != 480000000 {
		t.Fatalf("serial ns/op = %v, want min 480000000", serial.Metrics["ns/op"])
	}
	if serial.Metrics["B/op"] != 1000000 {
		t.Fatalf("serial B/op = %v, want min 1000000", serial.Metrics["B/op"])
	}
	// Custom ReportMetric units ride along.
	if benches["BenchmarkTable3"].Metrics["mlp-glucosym-F1"] != 0.95 {
		t.Fatalf("custom metric lost: %v", benches["BenchmarkTable3"].Metrics)
	}
	// Cost units aggregate by min, throughput units by max — both keep the
	// least noise-degraded repetition.
	mm := benches["BenchmarkMatMul/serial/n=64"]
	if mm.Metrics["ns/op"] != 100000 || mm.Metrics["MB/s"] != 50 {
		t.Fatalf("matmul aggregation = %v, want min ns/op 100000 and max MB/s 50", mm.Metrics)
	}
}

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkRunCampaign/serial-8":  "BenchmarkRunCampaign/serial",
		"BenchmarkRunCampaign-16":        "BenchmarkRunCampaign",
		"BenchmarkTrainMLP/parallel8-4":  "BenchmarkTrainMLP/parallel8",
		"BenchmarkFoo/sub-case/deeper-2": "BenchmarkFoo/sub-case/deeper",
	}
	for in, want := range cases {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGate(t *testing.T) {
	baseline := map[string]Bench{
		"BenchmarkRunCampaign/serial":    {Runs: 5, Metrics: map[string]float64{"ns/op": 100}},
		"BenchmarkRunCampaign/parallel8": {Runs: 5, Metrics: map[string]float64{"ns/op": 50}},
		"BenchmarkTrainMLP/serial":       {Runs: 5, Metrics: map[string]float64{"ns/op": 10}},
	}
	gates := []gateEntry{{pattern: regexp.MustCompile(`^BenchmarkRunCampaign/`), maxRegress: 0.20}}

	// Within the allowance (and ungated benchmarks regress freely).
	current := map[string]Bench{
		"BenchmarkRunCampaign/serial":    {Runs: 5, Metrics: map[string]float64{"ns/op": 115}},
		"BenchmarkRunCampaign/parallel8": {Runs: 5, Metrics: map[string]float64{"ns/op": 40}},
		"BenchmarkTrainMLP/serial":       {Runs: 5, Metrics: map[string]float64{"ns/op": 900}},
	}
	regs, err := gate(baseline, current, gates)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %+v", regs)
	}

	// Beyond the allowance.
	current["BenchmarkRunCampaign/parallel8"] = Bench{Runs: 5, Metrics: map[string]float64{"ns/op": 61}}
	regs, err = gate(baseline, current, gates)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].name != "BenchmarkRunCampaign/parallel8" {
		t.Fatalf("regressions = %+v, want the parallel8 one", regs)
	}

	// A gated baseline benchmark missing from the run is a failure too.
	delete(current, "BenchmarkRunCampaign/serial")
	regs, err = gate(baseline, current, gates)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range regs {
		if r.name == "BenchmarkRunCampaign/serial" && r.missing {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing gated benchmark not reported: %+v", regs)
	}
}

func TestGatePerBenchmarkThresholds(t *testing.T) {
	baseline := map[string]Bench{
		"BenchmarkRunCampaign/serial": {Runs: 5, Metrics: map[string]float64{"ns/op": 100}},
		"BenchmarkTrainMLP/serial":    {Runs: 5, Metrics: map[string]float64{"ns/op": 100}},
		"BenchmarkEvaluate/serial":    {Runs: 5, Metrics: map[string]float64{"ns/op": 100}},
	}
	gates, err := compileGates(map[string]float64{
		"^BenchmarkRunCampaign/": 0.20,
		"^BenchmarkTrainMLP/":    0.50,
		"^BenchmarkEvaluate/":    0.30,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each benchmark sits just beyond the *other* gates' thresholds but
	// within its own: no regression may fire.
	current := map[string]Bench{
		"BenchmarkRunCampaign/serial": {Runs: 5, Metrics: map[string]float64{"ns/op": 119}},
		"BenchmarkTrainMLP/serial":    {Runs: 5, Metrics: map[string]float64{"ns/op": 149}},
		"BenchmarkEvaluate/serial":    {Runs: 5, Metrics: map[string]float64{"ns/op": 129}},
	}
	regs, err := gate(baseline, current, gates)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("per-benchmark thresholds misapplied: %+v", regs)
	}
	// Exceeding its own threshold fires, and reports that gate's allowance.
	current["BenchmarkEvaluate/serial"] = Bench{Runs: 5, Metrics: map[string]float64{"ns/op": 131}}
	regs, err = gate(baseline, current, gates)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].name != "BenchmarkEvaluate/serial" || regs[0].allowed != 1.30 {
		t.Fatalf("regressions = %+v, want BenchmarkEvaluate/serial at 1.30x", regs)
	}
	// A benchmark matched by two gates is held to the strictest one.
	gates2 := append(gates, gateEntry{pattern: regexp.MustCompile(`^Benchmark`), maxRegress: 0.10})
	current["BenchmarkEvaluate/serial"] = Bench{Runs: 5, Metrics: map[string]float64{"ns/op": 115}}
	current["BenchmarkRunCampaign/serial"] = Bench{Runs: 5, Metrics: map[string]float64{"ns/op": 100}}
	current["BenchmarkTrainMLP/serial"] = Bench{Runs: 5, Metrics: map[string]float64{"ns/op": 100}}
	regs, err = gate(baseline, current, gates2)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].name != "BenchmarkEvaluate/serial" || regs[0].allowed != 1.10 {
		t.Fatalf("strictest-gate rule broken: %+v", regs)
	}
	// A gate matching no baseline benchmark is a configuration error.
	bad := append(gates, gateEntry{pattern: regexp.MustCompile(`^BenchmarkNope`), maxRegress: 0.10})
	if _, err := gate(baseline, current, bad); err == nil {
		t.Fatal("gate matching nothing did not error")
	}
}

func TestParseGatesFlag(t *testing.T) {
	gates, err := parseGatesFlag(" ^BenchmarkRunCampaign/=0.20 , ^BenchmarkEvaluate=0.30 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(gates) != 2 || gates["^BenchmarkRunCampaign/"] != 0.20 || gates["^BenchmarkEvaluate"] != 0.30 {
		t.Fatalf("parsed gates = %v", gates)
	}
	if g, err := parseGatesFlag(""); err != nil || g != nil {
		t.Fatalf("empty flag: %v %v", g, err)
	}
	if _, err := parseGatesFlag("no-equals"); err == nil {
		t.Fatal("missing threshold did not error")
	}
	if _, err := parseGatesFlag("^Bench=-0.1"); err == nil {
		t.Fatal("negative threshold did not error")
	}
}

// FuzzParseBenchOutput feeds arbitrary text to the `go test -bench`
// parser, seeded with sampleOutput. It must never panic or fail to
// return, and every benchmark it reports is named Benchmark…, was seen on
// at least one line and carries a metrics map.
func FuzzParseBenchOutput(f *testing.F) {
	f.Add(sampleOutput)
	f.Add("BenchmarkX-8 1 2 ns/op 3")
	f.Add("BenchmarkX-8 notanumber 2 ns/op")
	f.Fuzz(func(t *testing.T, in string) {
		benches, err := parseBenchOutput(strings.NewReader(in))
		if err != nil {
			return
		}
		for name, b := range benches {
			if !strings.HasPrefix(name, "Benchmark") || b.Runs < 1 || b.Metrics == nil {
				t.Fatalf("%q: %d runs, metrics %v", name, b.Runs, b.Metrics)
			}
		}
	})
}
