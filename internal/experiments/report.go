package experiments

import (
	"fmt"
	"strings"

	"repro/internal/eval"
)

// ReportsResult is the unified evaluation report surface: the per-scenario
// and per-fault-type breakdown of every monitor on both simulators, built by
// internal/eval and served from the report artifact cache on warm runs.
type ReportsResult struct {
	Set *eval.Set
}

// Reports evaluates all five monitors on both simulators, one (simulator,
// monitor) pair per sweep cell. Each cell consults the report artifact store
// first — a warm run serves every report from disk without resolving (or
// running) a single monitor — and evaluates episode-parallel on a miss.
// Reports are assembled in (simulator, monitor) order, so the result is
// byte-identical at every worker count.
func Reports(a *Assets) (*ReportsResult, error) {
	return reportSet(a, func(c *GridCell) (*eval.Report, error) {
		return c.SA.Report(c.Monitor)
	})
}

// reportSet runs report for every (simulator, monitor) pair, one sweep cell
// each, and lists the reports in (simulator, monitor) order.
func reportSet(a *Assets, report func(c *GridCell) (*eval.Report, error)) (*ReportsResult, error) {
	rows, err := runGrid(a, gridSpec[*eval.Report]{monitors: MonitorNames, levels: pairLevel, tag: tagReport, eval: report})
	if err != nil {
		return nil, err
	}
	return &ReportsResult{Set: &eval.Set{
		Tolerance: a.Config.ToleranceDelta,
		Reports:   pairValues(rows, MonitorNames),
	}}, nil
}

// Render implements Renderer via RenderReportSet.
func (r *ReportsResult) Render() string { return RenderReportSet(r.Set) }

// RenderReportSet formats a report set as the per-scenario breakdown table
// (one row per simulator × monitor × scenario slice, overall first) followed
// by the per-fault-type breakdown. apsexperiments -report and apstrain
// -report share it.
func RenderReportSet(set *eval.Set) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Evaluation report: per-scenario monitor performance (tolerance δ=%d)\n", set.Tolerance)
	sb.WriteString(renderSlices(set, "Scenario", func(r *eval.Report) []eval.Slice { return r.Scenarios }))
	sb.WriteString("\nEvaluation report: per-fault-type monitor performance\n")
	sb.WriteString(renderSlices(set, "Fault", func(r *eval.Report) []eval.Slice { return r.Faults }))
	return sb.String()
}

// renderSlices renders one breakdown dimension of every report in the set.
func renderSlices(set *eval.Set, dim string, slices func(*eval.Report) []eval.Slice) string {
	t := &table{header: []string{
		"Simulator", "Model", dim, "Eps", "Samples",
		"ACC", "F1", "P", "R",
		"Hazards", "Missed", "MeanLat", "P50", "P95",
	}}
	for _, rep := range set.Reports {
		t.addRow(sliceRow(rep, rep.Overall)...)
		for _, s := range slices(rep) {
			t.addRow(sliceRow(rep, s)...)
		}
	}
	return t.String()
}

// sliceRow formats one slice as a table row. Latency cells are "-" when the
// slice contains no detected hazard episode (stats would be meaningless
// zeros).
func sliceRow(rep *eval.Report, s eval.Slice) []string {
	c := s.Confusion
	mean, p50, p95 := "-", "-", "-"
	if s.Latency.Detected > 0 {
		mean = fmt.Sprintf("%.1f", s.Latency.Mean)
		p50 = fmt.Sprintf("%.0f", s.Latency.P50)
		p95 = fmt.Sprintf("%.0f", s.Latency.P95)
	}
	return []string{
		rep.Simulator, rep.Monitor, s.Key,
		fmt.Sprintf("%d", s.Episodes), fmt.Sprintf("%d", s.Samples),
		f3(c.Accuracy()), f3(c.F1()), f3(c.Precision()), f3(c.Recall()),
		fmt.Sprintf("%d", s.Latency.Hazards), fmt.Sprintf("%d", s.Latency.Missed),
		mean, p50, p95,
	}
}
