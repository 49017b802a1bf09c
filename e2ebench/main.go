// Command e2ebench is the repository's end-to-end benchmark. It drives the
// APS monitor pipeline through four workloads from one process, calling the
// public functions of the internal packages, and prints one JSON result line:
//
//	cold-train   simulate, window, split, train, evaluate and persist into an
//	             empty artifact store (where a cold run spends its compute)
//	warm-attack  the paper's robustness sweeps on assets loaded from a filled
//	             store (attack, f64 inference and input gradients)
//	serve-sparse single-sample uploads to an in-process serve.Server on an
//	             open-loop schedule (per-request overhead, batch deadline)
//	serve-burst  32-sample uploads to the same server (size flushes, the
//	             fused float32 kernel at batch 32)
//
// Untraced runs (-trace 0) report the end-to-end metrics; a traced run
// (-trace 1) times each layer's public calls from outside at the workload's
// own shapes and reports the per-layer metrics. Usage, from the repository
// root:
//
//	bash e2ebench/run.sh --workload cold-train --seed 1 --seconds 12 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// options is one invocation's configuration.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// dir is the scratch root for temporary stores and trace output; it is
	// created if missing.
	dir string
	// workers is the worker budget every global knob is set to (nproc).
	workers int
}

// result is what a workload hands back for printing.
type result struct {
	attempted int
	failed    int
	metrics   map[string]float64
	// phases are human-readable per-phase counts, printed before the JSON.
	phases []string
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(ctx context.Context, o options) (*result, error){
	"cold-train":   runColdTrain,
	"warm-attack":  runWarmAttack,
	"serve-sparse": func(ctx context.Context, o options) (*result, error) { return runServe(ctx, o, sparseProfile) },
	"serve-burst":  func(ctx context.Context, o options) (*result, error) { return runServe(ctx, o, burstProfile) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: cold-train, warm-attack, serve-sparse or serve-burst")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	dir := fs.String("dir", ".bench_build", "scratch directory for temporary stores and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need -workload (one of %v), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	// SIGINT/SIGTERM cancel the workload; its deferred teardown then closes
	// servers and removes temporary stores before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir, workers: runtime.GOMAXPROCS(0)}
	res, err := drive(ctx, o)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *workload, err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	for _, p := range res.phases {
		fmt.Fprintln(stdout, p)
	}
	line, err := resultJSON(res, o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON renders the result line: every end-to-end metric
// for an untraced run, every per-layer metric for a traced one (0 for a
// layer the workload leaves idle).
func resultJSON(res *result, traced bool) ([]byte, error) {
	set := endToEnd
	if traced {
		set = perLayer
	}
	metrics := make(map[string]metricJSON, len(set))
	for _, m := range set {
		v, ok := res.metrics[m.name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload did not measure %s", m.name)
		}
		metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	if res.attempted < 1 {
		return nil, fmt.Errorf("workload attempted no operation")
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
}

// deadline returns when a measurement window that starts now ends.
func deadline(o options) time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
}
