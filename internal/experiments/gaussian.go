package experiments

import (
	"fmt"
	"math"
	"strings"

	"math/rand"
	"repro/internal/dataset"
	"repro/internal/sweep"
)

// Fig5Result reproduces Fig. 5: F1 score of the four ML monitors under
// Gaussian sensor noise of increasing σ, for both simulators.
// F1[simulator][monitor][level] aligns with GaussianLevels.
type Fig5Result struct {
	Levels []float64
	F1     map[string]map[string][]float64
}

// Fig5 sweeps the Gaussian noise levels over the shared grid executor.
func Fig5(a *Assets) (*Fig5Result, error) {
	f1, err := runGrid(a, gridSpec[float64]{
		monitors: MLMonitorNames,
		levels:   GaussianLevels,
		tag:      tagFig5,
		eval: func(c *GridCell) (float64, error) {
			m, err := c.SA.MLMonitor(c.Monitor)
			if err != nil {
				return 0, err
			}
			pred, err := noisyClasses(m, c.SA.Test, c.Level, c.Seed)
			if err != nil {
				return 0, cellErr("fig5", c, err)
			}
			conf, err := score(pred, c.SA.Test, a.Config.ToleranceDelta)
			if err != nil {
				return 0, cellErr("fig5", c, err)
			}
			return conf.F1(), nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Levels: GaussianLevels, F1: f1}, nil
}

// Render formats the Fig. 5 series.
func (r *Fig5Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig 5: F1 Score of the ML Monitors under Gaussian Noise N(0, σ²)\n")
	for _, simu := range Simulators {
		sb.WriteString(fmt.Sprintf("(%s)\n", simu))
		t := &table{header: append([]string{"Model"}, levelsHeader("σ", r.Levels)...)}
		for _, name := range MLMonitorNames {
			cells := []string{name}
			for _, v := range r.F1[simu.String()][name] {
				cells = append(cells, f3(v))
			}
			t.addRow(cells...)
		}
		sb.WriteString(t.String())
	}
	return sb.String()
}

// prSample carries one cell of the Fig. 6 precision/recall sweep.
type prSample struct {
	Precision float64
	Recall    float64
}

// Fig6Result reproduces Fig. 6: precision and recall of the MLP and
// MLP-Custom monitors on the T1DS simulator under Gaussian noise.
type Fig6Result struct {
	Levels    []float64
	Precision map[string][]float64
	Recall    map[string][]float64
}

// fig6Monitors is the monitor axis of Fig. 6.
var fig6Monitors = []string{"mlp", "mlp_custom"}

// Fig6 sweeps noise levels for the two MLP monitors on T1DS.
func Fig6(a *Assets) (*Fig6Result, error) {
	grid, err := runGrid(a, gridSpec[prSample]{
		sims:     []dataset.Simulator{dataset.T1DS},
		monitors: fig6Monitors,
		levels:   GaussianLevels,
		tag:      tagFig6,
		eval: func(c *GridCell) (prSample, error) {
			m, err := c.SA.MLMonitor(c.Monitor)
			if err != nil {
				return prSample{}, err
			}
			pred, err := noisyClasses(m, c.SA.Test, c.Level, c.Seed)
			if err != nil {
				return prSample{}, cellErr("fig6", c, err)
			}
			conf, err := score(pred, c.SA.Test, a.Config.ToleranceDelta)
			if err != nil {
				return prSample{}, cellErr("fig6", c, err)
			}
			return prSample{Precision: conf.Precision(), Recall: conf.Recall()}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{
		Levels:    GaussianLevels,
		Precision: map[string][]float64{},
		Recall:    map[string][]float64{},
	}
	for _, name := range fig6Monitors {
		for _, pr := range grid[dataset.T1DS.String()][name] {
			res.Precision[name] = append(res.Precision[name], pr.Precision)
			res.Recall[name] = append(res.Recall[name], pr.Recall)
		}
	}
	return res, nil
}

// Render formats the Fig. 6 series.
func (r *Fig6Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig 6: Precision and Recall of MLP Monitors in T1DS vs Gaussian Noise\n")
	t := &table{header: append([]string{"Metric/Model"}, levelsHeader("σ", r.Levels)...)}
	for _, name := range fig6Monitors {
		cells := []string{"precision " + name}
		for _, v := range r.Precision[name] {
			cells = append(cells, f3(v))
		}
		t.addRow(cells...)
		cells = []string{"recall " + name}
		for _, v := range r.Recall[name] {
			cells = append(cells, f3(v))
		}
		t.addRow(cells...)
	}
	sb.WriteString(t.String())
	return sb.String()
}

// fig4Hist is one simulator's pair of Fig. 4 histograms.
type fig4Hist struct {
	Original []int
	Noisy    []int
}

// Fig4Result reproduces Fig. 4: histograms of the test BG distribution with
// and without Gaussian noise (σ = 0.5 std), for both simulators.
type Fig4Result struct {
	BinEdges []float64
	Original map[string][]int
	Noisy    map[string][]int
}

// Fig4 builds the histograms over the raw (mg/dL) BG values, one simulator
// per sweep cell.
func Fig4(a *Assets) (*Fig4Result, error) {
	const bins = 12
	lo, hi := 40.0, 340.0
	res := &Fig4Result{
		Original: map[string][]int{},
		Noisy:    map[string][]int{},
	}
	for b := 0; b <= bins; b++ {
		res.BinEdges = append(res.BinEdges, lo+float64(b)*(hi-lo)/bins)
	}
	base := sweep.Derive(a.Config.Seed, tagFig4)
	hists, err := sweep.Map(Workers(), len(Simulators), func(i int) (fig4Hist, error) {
		sa := a.Sims[Simulators[i]]
		orig := make([]int, bins)
		noisy := make([]int, bins)
		// Raw BG std on the test set scales the noise (σ = 0.5 std), as in
		// the paper's Fig 4.
		var mean, sq float64
		for _, s := range sa.Test.Samples {
			mean += s.BG
		}
		mean /= float64(sa.Test.Len())
		for _, s := range sa.Test.Samples {
			d := s.BG - mean
			sq += d * d
		}
		std := math.Sqrt(sq / float64(sa.Test.Len()))
		rng := rand.New(rand.NewSource(sweep.CellSeed(base, i)))
		binOf := func(v float64) int {
			b := int((v - lo) / (hi - lo) * bins)
			if b < 0 {
				b = 0
			}
			if b >= bins {
				b = bins - 1
			}
			return b
		}
		for _, s := range sa.Test.Samples {
			orig[binOf(s.BG)]++
			noisy[binOf(s.BG+rng.NormFloat64()*0.5*std)]++
		}
		return fig4Hist{Original: orig, Noisy: noisy}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, simu := range Simulators {
		res.Original[simu.String()] = hists[i].Original
		res.Noisy[simu.String()] = hists[i].Noisy
	}
	return res, nil
}

// Render formats the Fig. 4 histograms.
func (r *Fig4Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig 4: Test BG Distribution with/without Gaussian Noise N(0,(0.5std)²)\n")
	t := &table{header: []string{"Bin (mg/dL)", "glucosym orig", "glucosym noisy", "t1ds orig", "t1ds noisy"}}
	for b := 0; b < len(r.BinEdges)-1; b++ {
		t.addRow(
			fmt.Sprintf("%.0f-%.0f", r.BinEdges[b], r.BinEdges[b+1]),
			fmt.Sprintf("%d", r.Original["glucosym"][b]),
			fmt.Sprintf("%d", r.Noisy["glucosym"][b]),
			fmt.Sprintf("%d", r.Original["t1ds"][b]),
			fmt.Sprintf("%d", r.Noisy["t1ds"][b]),
		)
	}
	sb.WriteString(t.String())
	return sb.String()
}

func levelsHeader(prefix string, levels []float64) []string {
	out := make([]string, len(levels))
	for i, l := range levels {
		out[i] = fmt.Sprintf("%s=%.2f", prefix, l)
	}
	return out
}
