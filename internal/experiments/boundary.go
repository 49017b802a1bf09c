package experiments

import (
	"fmt"
	"strings"

	"repro/internal/controller"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/monitor"
	"repro/internal/sweep"
)

// Fig3Result reproduces Fig. 3: the decision boundaries of the baseline MLP
// and MLP-Custom monitors over the BG × IOB plane (all other features held
// at a fixed context).
type Fig3Result struct {
	BGs  []float64
	IOBs []float64
	// Grid[model][i][j] is the predicted class at (IOBs[i], BGs[j]).
	Grid map[string][][]int
	// DisagreementFrac is the fraction of grid cells where the two monitors
	// differ (how much the semantic loss reshapes the boundary).
	DisagreementFrac float64
}

// Fig3 rasterizes both MLP monitors over BG ∈ [100, 240], IOB ∈ [−2, 2]
// with a keep_insulin context and mild positive BG trend, mirroring the
// paper's plot.
func Fig3(a *Assets) (*Fig3Result, error) {
	sa := a.Sims[dataset.Glucosym]
	res := &Fig3Result{Grid: map[string][][]int{}}
	const nBG, nIOB = 36, 21
	for j := 0; j < nBG; j++ {
		res.BGs = append(res.BGs, 100+float64(j)*(240-100)/(nBG-1))
	}
	for i := 0; i < nIOB; i++ {
		res.IOBs = append(res.IOBs, -2+float64(i)*4/(nIOB-1))
	}
	names := []string{"mlp", "mlp_custom"}
	grids, err := sweep.Map(Workers(), len(names), func(i int) ([][]int, error) {
		m, err := sa.MLMonitor(names[i])
		if err != nil {
			return nil, err
		}
		grid, err := rasterize(m, res.BGs, res.IOBs)
		if err != nil {
			return nil, fmt.Errorf("fig3: %s: %w", names[i], err)
		}
		return grid, nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		res.Grid[name] = grids[i]
	}
	var differ, total int
	for i := range res.IOBs {
		for j := range res.BGs {
			total++
			if res.Grid["mlp"][i][j] != res.Grid["mlp_custom"][i][j] {
				differ++
			}
		}
	}
	res.DisagreementFrac = float64(differ) / float64(total)
	return res, nil
}

func rasterize(m *monitor.MLMonitor, bgs, iobs []float64) ([][]int, error) {
	x := mat.New(len(bgs)*len(iobs), dataset.MLPFeatureCount)
	feats := make([]float64, dataset.MLPFeatureCount)
	row := 0
	for _, iob := range iobs {
		for _, bg := range bgs {
			feats[dataset.MLPFeatMeanBG] = bg
			feats[dataset.MLPFeatSlopeBG] = 0.5 // mild rise, the paper's unsafe-leaning context
			feats[dataset.MLPFeatMeanIOB] = iob
			feats[dataset.MLPFeatSlopeIOB] = 0
			feats[dataset.MLPFeatMeanRate] = 1
			feats[dataset.MLPFeatLastBG] = bg
			feats[dataset.MLPFeatLastIOB] = iob
			feats[dataset.MLPFeatAction] = float64(controller.ActionKeep)
			if err := m.Normalizer().ApplyRowInto(x.Row(row), feats); err != nil {
				return nil, err
			}
			row++
		}
	}
	pred, err := m.PredictClasses(x)
	if err != nil {
		return nil, err
	}
	grid := make([][]int, len(iobs))
	row = 0
	for i := range iobs {
		grid[i] = make([]int, len(bgs))
		for j := range bgs {
			grid[i][j] = pred[row]
			row++
		}
	}
	return grid, nil
}

// Render draws the two boundaries as ASCII rasters ('.' safe, '#' unsafe).
func (r *Fig3Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig 3: Decision Boundaries of the MLP (left) and MLP-Custom (right) Monitors\n")
	fmt.Fprintf(&sb, "x: BG %.0f..%.0f mg/dL, y: IOB %.1f..%.1f U, '.'=safe '#'=unsafe; cells differing: %.1f%%\n",
		r.BGs[0], r.BGs[len(r.BGs)-1], r.IOBs[0], r.IOBs[len(r.IOBs)-1], 100*r.DisagreementFrac)
	for i := len(r.IOBs) - 1; i >= 0; i-- {
		var left, right strings.Builder
		for j := range r.BGs {
			if r.Grid["mlp"][i][j] == 1 {
				left.WriteByte('#')
			} else {
				left.WriteByte('.')
			}
			if r.Grid["mlp_custom"][i][j] == 1 {
				right.WriteByte('#')
			} else {
				right.WriteByte('.')
			}
		}
		fmt.Fprintf(&sb, "%6.2f | %s | %s\n", r.IOBs[i], left.String(), right.String())
	}
	return sb.String()
}
