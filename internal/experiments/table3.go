package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
)

// Table3Row is one line of Table III: a monitor's clean-input performance on
// one simulator.
type Table3Row struct {
	Simulator  string
	Monitor    string
	Episodes   int
	Samples    int
	Accuracy   float64
	F1         float64
	Precision  float64
	Recall     float64
	UnsafeFrac float64
}

// Table3Result reproduces Table III: overall performance of each monitor
// without perturbations.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 evaluates all five monitors on both simulators with clean inputs,
// one (simulator, monitor) pair per sweep cell — a thin adapter over the
// eval subsystem, keeping only each report's overall confusion matrix. It
// shares the report artifact cache with the -report surface, so a warm
// table3 run performs zero monitor inferences.
func Table3(a *Assets) (*Table3Result, error) {
	rows, err := runGrid(a, gridSpec[Table3Row]{monitors: MonitorNames, levels: pairLevel, tag: tagTable3, eval: func(c *GridCell) (Table3Row, error) {
		rep, err := c.SA.Report(c.Monitor)
		if err != nil {
			return Table3Row{}, fmt.Errorf("table3: %s on %v: %w", c.Monitor, c.Sim, err)
		}
		conf := rep.Overall.Confusion
		return Table3Row{
			Simulator:  c.Sim.String(),
			Monitor:    c.Monitor,
			Episodes:   len(c.SA.Full.EpisodeIndex),
			Samples:    c.SA.Full.Len(),
			Accuracy:   conf.Accuracy(),
			F1:         conf.F1(),
			Precision:  conf.Precision(),
			Recall:     conf.Recall(),
			UnsafeFrac: c.SA.Test.UnsafeFraction(),
		}, nil
	}})
	if err != nil {
		return nil, err
	}
	return &Table3Result{Rows: pairValues(rows, MonitorNames)}, nil
}

// Render formats the result like Table III.
func (r *Table3Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table III: Overall Performance of Each Monitor without Noises\n")
	t := &table{header: []string{"Simulator", "Model", "No.Sim", "No.Sample", "ACC", "F1", "P", "R"}}
	for _, row := range r.Rows {
		t.addRow(row.Simulator, row.Monitor,
			fmt.Sprintf("%d", row.Episodes), fmt.Sprintf("%d", row.Samples),
			f2(row.Accuracy), f2(row.F1), f2(row.Precision), f2(row.Recall))
	}
	sb.WriteString(t.String())
	return sb.String()
}

// Row returns the row for a simulator/monitor pair.
//
//apslint:allow reach BenchmarkTable3 in bench_test.go reports F1 per row through it
func (r *Table3Result) Row(simu dataset.Simulator, monitorName string) (Table3Row, bool) {
	for _, row := range r.Rows {
		if row.Simulator == simu.String() && row.Monitor == monitorName {
			return row, true
		}
	}
	return Table3Row{}, false
}
