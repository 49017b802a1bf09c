package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric names one reported number and its unit. BENCHMARK.json lists the
// same names; TestMetricsMatchBenchmarkJSON keeps the two in step.
type metric struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every workload.
//
//	setup_s      time to prepare a run's inputs before timing: offline, the
//	             reference pass (cold-train) or the store fill (warm-attack);
//	             serve, the median of several served-model loads, server
//	             starts and reference-verdict computations
//	run_s        median wall time of one pass of the workload's fixed job:
//	             the pipeline pass offline; for serve, one closed-loop
//	             backfill of a fixed upload script on nproc connections
//	peak_rss_mb  peak resident memory of the benchmark process
//	p50_ms       median latency of the workload's unit of work: a verdict
//	             upload at the reference rate on an open-loop schedule,
//	             timed from its due time (serve); one pass (offline)
//
// Offline, p50_ms repeats run_s in milliseconds: the result line carries
// every end-to-end metric on every workload. The serve p99 and the highest
// rate meeting the p99 limit did not repeat within their bounds from run to
// run on a shared two-core machine, so they are per-layer metrics
// (serve.p99_ms, serve.rate_max). The share of failed operations is no
// metric of its own: the result line's failed and attempted counts give it.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
}

// perLayer are the metrics a traced run reports. A layer that the workload
// does not exercise reports 0.
var perLayer = []metric{
	{"sim.campaign_s", "s"},
	{"sim.episodes", "count"},
	{"dataset.generate_s", "s"},
	{"dataset.split_ms", "ms"},
	{"dataset.noise_s", "s"},
	{"dataset.windows", "count"},
	{"artifact.store_s", "s"},
	{"artifact.store_bytes", "bytes"},
	{"artifact.load_ms", "ms"},
	{"artifact.hits", "count"},
	{"artifact.misses", "count"},
	{"monitor.train_mlp_s", "s"},
	{"monitor.train_lstm_s", "s"},
	{"monitor.train_windows_per_s", "1/s"},
	{"monitor.input_matrix_ms", "ms"},
	{"nn.dense_fwd_us", "us"},
	{"nn.dense_bwd_us", "us"},
	{"nn.lstm_fwd_us", "us"},
	{"nn.lstm_bwd_us", "us"},
	{"nn.trainer_step_ms", "ms"},
	{"nn.adam_step_us", "us"},
	{"nn.input_grad_ms", "ms"},
	{"nn.predict_ms", "ms"},
	{"mat.matmul_gflops", "GFLOP/s"},
	{"mat.tmatmul_add_gflops", "GFLOP/s"},
	{"mat32.classify_b1_us", "us"},
	{"mat32.classify_b32_us", "us"},
	{"attack.fgsm_s", "s"},
	{"attack.substitute_s", "s"},
	{"attack.blackbox_s", "s"},
	{"attack.evasion_s", "s"},
	{"eval.evaluate_s", "s"},
	{"eval.windows_per_s", "1/s"},
	{"eval.score_s", "s"},
	{"experiments.build_s", "s"},
	{"experiments.table3_s", "s"},
	{"experiments.report_s", "s"},
	{"experiments.fig5_s", "s"},
	{"experiments.fig8_s", "s"},
	{"experiments.fig9_s", "s"},
	{"experiments.fig10_s", "s"},
	{"experiments.evasion_s", "s"},
	{"experiments.render_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"serve.rate_max", "1/s"},
	{"serve.rtt_p50_ms", "ms"},
	{"serve.gen_lag_ms", "ms"},
	{"serve.batch_occupancy", "rows"},
	{"serve.deadline_flush_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.bypass_p50_ms", "ms"},
	{"serve.session_create_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.coverage_ratio", "ratio"},
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for none. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's total obtained memory where /proc is absent.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// memDelta measures allocation and GC work across one pass.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// stop returns MB allocated, GC cycles and GC pause ms since startMem.
func (d *memDelta) stop() (allocMB, cycles, pauseMS float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-d.before.TotalAlloc) / (1 << 20),
		float64(after.NumGC - d.before.NumGC),
		float64(after.PauseTotalNs-d.before.PauseTotalNs) / 1e6
}
