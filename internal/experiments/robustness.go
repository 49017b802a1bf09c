package experiments

import (
	"strings"

	"repro/internal/attack"
	"repro/internal/mat"
	"repro/internal/metrics"
)

// HeatmapResult is a robustness-error heatmap: one row per
// monitor×simulator, one column per perturbation level (Figs 9 and 10).
type HeatmapResult struct {
	Title  string
	Prefix string // level label prefix ("σ" or "ε")
	Levels []float64
	// Errors[rowLabel] aligns with Levels.
	Errors map[string][]float64
	// RowOrder preserves the paper's row ordering.
	RowOrder []string
}

// rowLabel builds the paper's row naming, e.g. "MLP-Custom-Glucosym".
func rowLabel(monitorName, simName string) string {
	pretty := map[string]string{
		"mlp": "MLP", "mlp_custom": "MLP-Custom",
		"lstm": "LSTM", "lstm_custom": "LSTM-Custom",
	}
	sim := map[string]string{"glucosym": "Glucosym", "t1ds": "T1DS2013"}
	return pretty[monitorName] + "-" + sim[simName]
}

// heatmapRowOrder mirrors Fig. 9: MLP rows, then MLP-Custom, LSTM,
// LSTM-Custom, each for both simulators.
func heatmapRowOrder() []string {
	var rows []string
	for _, mn := range []string{"mlp", "mlp_custom", "lstm", "lstm_custom"} {
		for _, simu := range Simulators {
			rows = append(rows, rowLabel(mn, simu.String()))
		}
	}
	return rows
}

// heatmapFromGrid reshapes a runGrid result into the paper's row layout.
func heatmapFromGrid(title, prefix string, levels []float64, grid map[string]map[string][]float64) *HeatmapResult {
	res := &HeatmapResult{
		Title:    title,
		Prefix:   prefix,
		Levels:   levels,
		Errors:   map[string][]float64{},
		RowOrder: heatmapRowOrder(),
	}
	for simName, rows := range grid {
		for name, row := range rows {
			res.Errors[rowLabel(name, simName)] = row
		}
	}
	return res
}

// fig9Heatmap runs one Fig 9 heatmap: every (simulator, ML monitor, level)
// cell scores the robustness error between the pair's clean classes and
// the classes perturbed returns for the cell.
func fig9Heatmap(a *Assets, exp, title, prefix string, levels []float64, tag int64,
	perturbed func(c *GridCell, sf *attackSurface) ([]int, error)) (*HeatmapResult, error) {
	if err := buildSurfaces(a); err != nil {
		return nil, err
	}
	grid, err := runGrid(a, gridSpec[float64]{
		monitors: MLMonitorNames,
		levels:   levels,
		tag:      tag,
		eval: func(c *GridCell) (float64, error) {
			sf, err := c.SA.surface(c.Monitor)
			if err != nil {
				return 0, err
			}
			orig, err := sf.cleanClasses()
			if err != nil {
				return 0, err
			}
			pert, err := perturbed(c, sf)
			if err != nil {
				return 0, cellErr(exp, c, err)
			}
			return metrics.RobustnessError(orig, pert)
		},
	})
	if err != nil {
		return nil, err
	}
	return heatmapFromGrid(title, prefix, levels, grid), nil
}

// Fig9Gaussian computes the robustness-error heatmap against Gaussian noise
// (left heatmap of Fig. 9).
func Fig9Gaussian(a *Assets) (*HeatmapResult, error) {
	return fig9Heatmap(a, "fig9 gaussian", "Robustness Error of ML Monitors Against Gaussian Noise (0 ± std·σ)",
		"σ", GaussianLevels, tagFig9, func(c *GridCell, sf *attackSurface) ([]int, error) {
			return noisyClasses(sf.m, c.SA.Test, c.Level, c.Seed)
		})
}

// Fig9FGSM computes the robustness-error heatmap against white-box FGSM
// (right heatmap of Fig. 9).
func Fig9FGSM(a *Assets) (*HeatmapResult, error) {
	return fig9Heatmap(a, "fig9 fgsm", "Robustness Error of ML Monitors Against White-box FGSM Attacks",
		"ε", FGSMLevels, tagFig9FGSM, func(c *GridCell, sf *attackSurface) ([]int, error) {
			return sf.fgsmClasses(c.Level)
		})
}

// blackBoxQueryBudget caps how many monitor queries the black-box attacker
// may issue to train its substitute.
const blackBoxQueryBudget = 600

// Fig10 computes the robustness-error heatmap against black-box FGSM
// attacks crafted on a substitute model trained from target queries. The
// sweep cell is one (simulator, monitor) pair: the substitute is resolved
// once per pair (loaded from the artifact store when it holds one, trained
// otherwise), its input gradient is taken once, and every ε budget
// transfers from it, so parallel execution never retrains a substitute.
//
// Unlike Fig 9, every target prediction here (the substitute's query
// labels, the clean test classes and the attacked classes) runs on the
// canonical f64 path whatever the configured precision: the attacker's
// observations stay bit-deterministic. The clean test classes therefore
// come from the attack surface's f64 classes, never from cleanClasses.
func Fig10(a *Assets) (*HeatmapResult, error) {
	if err := buildSurfaces(a); err != nil {
		return nil, err
	}
	grid, err := runGrid(a, gridSpec[[]float64]{monitors: MLMonitorNames, levels: pairLevel, tag: tagFig10, eval: func(c *GridCell) ([]float64, error) {
		sf, err := c.SA.surface(c.Monitor)
		if err != nil {
			return nil, err
		}
		m := sf.m
		tc, _, err := c.SA.trainConfig(c.Monitor)
		if err != nil {
			return nil, err
		}
		// The attacker queries the target and fits the substitute to the
		// responses. The query budget is limited — a realistic black-box
		// constraint, and the reason transfer attacks are weaker than
		// white-box ones (§IV-G). A stored substitute skips both.
		sub, _, err := CachedSubstitute(ActiveStore(), monitorKey(c.SA.campaign, c.SA.cfg.TrainFrac, tc),
			blackBoxQueryBudget, attack.SubstituteConfig{Epochs: a.Config.Epochs, Seed: c.Seed},
			func() (*mat.Matrix, []int, error) {
				qx, err := m.InputMatrix(c.SA.Train.Samples)
				if err != nil {
					return nil, nil, err
				}
				if qx.Rows() > blackBoxQueryBudget {
					if qx, err = qx.SliceRows(0, blackBoxQueryBudget); err != nil {
						return nil, nil, err
					}
				}
				qPred, err := m.PredictClasses(qx)
				return qx, qPred, err
			})
		if err != nil {
			return nil, cellErr("fig10 substitute", c, err)
		}
		// Perturbations crafted on the substitute using the target's
		// (observed) predictions as labels, then transferred. The
		// substitute is private to this cell, so its gradient needs no
		// replica.
		tx, tPred := sf.x, sf.f64
		grad, err := sub.InputGradient(tx, tPred, nil)
		if err != nil {
			return nil, cellErr("fig10 gradient", c, err)
		}
		row := make([]float64, 0, len(FGSMLevels))
		for _, eps := range FGSMLevels {
			adv, err := attack.FGSMStep(tx, grad, eps)
			if err != nil {
				return nil, err
			}
			advPred, err := m.PredictClasses(adv)
			if err != nil {
				return nil, err
			}
			re, err := metrics.RobustnessError(tPred, advPred)
			if err != nil {
				return nil, err
			}
			row = append(row, re)
		}
		return row, nil
	}})
	if err != nil {
		return nil, err
	}
	rows := make(map[string]map[string][]float64, len(grid))
	for simName, cells := range grid {
		rows[simName] = make(map[string][]float64, len(cells))
		for name, series := range cells {
			rows[simName][name] = series[0]
		}
	}
	return heatmapFromGrid("Robustness Error of ML Monitors Against Black-box Attacks",
		"ε", FGSMLevels, rows), nil
}

// Render formats the heatmap like Fig. 9/10.
func (r *HeatmapResult) Render() string {
	var sb strings.Builder
	sb.WriteString(r.Title + "\n")
	t := &table{header: append([]string{"Model"}, levelsHeader(r.Prefix, r.Levels)...)}
	for _, row := range r.RowOrder {
		cells := []string{row}
		for _, v := range r.Errors[row] {
			cells = append(cells, f2(v))
		}
		t.addRow(cells...)
	}
	sb.WriteString(t.String())
	return sb.String()
}

// MeanError averages a row group (e.g. all Custom rows) for the headline
// reduction claims.
//
//apslint:allow reach the Fig 9 and Fig 10 benchmarks in bench_test.go report it as their headline metric
func (r *HeatmapResult) MeanError(filter func(rowLabel string) bool) float64 {
	// Reduce in RowOrder, not map order: float addition does not associate,
	// so summing in map-iteration order made the headline number depend on
	// the run (caught by apslint's detpure analyzer).
	var sum float64
	var n int
	for _, label := range r.RowOrder {
		if !filter(label) {
			continue
		}
		for _, v := range r.Errors[label] {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
