package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/sweep"
)

// Fig8Result reproduces Fig. 8: F1 score of the four ML monitors under
// white-box FGSM attacks of increasing ε, for both simulators.
type Fig8Result struct {
	Levels []float64
	F1     map[string]map[string][]float64
}

// Fig8 sweeps the FGSM ε budgets over the shared grid executor. FGSM is
// deterministic given the model and labels, so cells need no seed; each
// cell steps the pair's shared attack surface by its own ε.
func Fig8(a *Assets) (*Fig8Result, error) {
	if err := buildSurfaces(a); err != nil {
		return nil, err
	}
	f1, err := runGrid(a, gridSpec[float64]{
		monitors: MLMonitorNames,
		levels:   FGSMLevels,
		tag:      tagFig8,
		eval: func(c *GridCell) (float64, error) {
			sf, err := c.SA.surface(c.Monitor)
			if err != nil {
				return 0, err
			}
			pred, err := sf.fgsmClasses(c.Level)
			if err != nil {
				return 0, cellErr("fig8", c, err)
			}
			conf, err := score(pred, c.SA.Test, a.Config.ToleranceDelta)
			if err != nil {
				return 0, cellErr("fig8", c, err)
			}
			return conf.F1(), nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Levels: FGSMLevels, F1: f1}, nil
}

// Render formats the Fig. 8 series.
func (r *Fig8Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig 8: F1 Score of each ML Monitor Against White-box FGSM Attacks\n")
	for _, simu := range Simulators {
		sb.WriteString(fmt.Sprintf("(%s)\n", simu))
		t := &table{header: append([]string{"Model"}, levelsHeader("ε", r.Levels)...)}
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

// Fig2Result reproduces Fig. 2: a single FGSM attack that flips a correct
// unsafe verdict (with high confidence) to a confident safe verdict while
// only minutely changing the input.
type Fig2Result struct {
	Simulator        string
	Monitor          string
	Epsilon          float64
	SampleIndex      int
	OrigConfidence   float64 // P(unsafe) before the attack
	AdvConfidence    float64 // P(safe) after the attack
	MaxInputChange   float64 // L∞ of the normalized perturbation
	OriginalFeatures []float64
	AdvFeatures      []float64
}

// Fig2 finds an example flip on the baseline MLP monitor of the Glucosym
// case study (the paper's example uses a keep_insulin command context).
func Fig2(a *Assets) (*Fig2Result, error) {
	sa := a.Sims[dataset.Glucosym]
	sf, err := sa.surface("mlp")
	if err != nil {
		return nil, err
	}
	m, x, labels := sf.m, sf.x, sa.TestLabels()
	const eps = 0.2
	adv, err := attack.FGSMStep(x, sf.grad, eps)
	if err != nil {
		return nil, err
	}
	origV, err := m.ClassifyMatrix(x)
	if err != nil {
		return nil, err
	}
	advV, err := m.ClassifyMatrix(adv)
	if err != nil {
		return nil, err
	}
	best := -1
	bestConf := 0.0
	for i := range origV {
		// Correctly detected unsafe sample flipped to safe by the attack.
		if labels[i] == 1 && origV[i].Unsafe && !advV[i].Unsafe {
			if conf := origV[i].Confidence + advV[i].Confidence; conf > bestConf {
				best, bestConf = i, conf
			}
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("fig2: no flipped unsafe sample found at ε=%v", eps)
	}
	diff, err := mat.SubM(adv, x)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{
		Simulator:        "glucosym",
		Monitor:          "mlp",
		Epsilon:          eps,
		SampleIndex:      best,
		OrigConfidence:   origV[best].Confidence,
		AdvConfidence:    advV[best].Confidence,
		MaxInputChange:   diff.MaxAbs(),
		OriginalFeatures: append([]float64(nil), x.Row(best)...),
		AdvFeatures:      append([]float64(nil), adv.Row(best)...),
	}, nil
}

// Render formats the Fig. 2 example.
func (r *Fig2Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig 2: Example FGSM Attack on a Baseline Monitor\n")
	fmt.Fprintf(&sb, "simulator=%s monitor=%s ε=%.2f sample=%d\n", r.Simulator, r.Monitor, r.Epsilon, r.SampleIndex)
	fmt.Fprintf(&sb, "before: UNSAFE with %.2f%% confidence\n", 100*r.OrigConfidence)
	fmt.Fprintf(&sb, "after:  SAFE   with %.2f%% confidence (L∞ input change %.3f)\n", 100*r.AdvConfidence, r.MaxInputChange)
	t := &table{header: []string{"feature", "original", "adversarial"}}
	names := []string{"meanBG", "slopeBG", "meanIOB", "slopeIOB", "meanRate", "lastBG", "lastIOB", "action"}
	for j, n := range names {
		t.addRow(n, f3(r.OriginalFeatures[j]), f3(r.AdvFeatures[j]))
	}
	sb.WriteString(t.String())
	return sb.String()
}

// Fig7Result reproduces Fig. 7: example BG and IOB input sequences with and
// without white-box FGSM perturbation (ε = 0.2), in raw units, for the MLP
// and LSTM monitors.
type Fig7Result struct {
	Epsilon float64
	// Series[model] holds parallel original/adversarial sequences.
	BGOriginal  map[string][]float64
	BGAdv       map[string][]float64
	IOBOriginal map[string][]float64
	IOBAdv      map[string][]float64
}

// fig7Series is one monitor's denormalized trace pair.
type fig7Series struct {
	BGOrig, BGAdv, IOBOrig, IOBAdv []float64
}

// fig7Monitors is the monitor axis of Fig. 7.
var fig7Monitors = []string{"mlp", "lstm"}

// Fig7 denormalizes a stretch of adversarial inputs on the Glucosym test
// set, one monitor per sweep cell.
func Fig7(a *Assets) (*Fig7Result, error) {
	sa := a.Sims[dataset.Glucosym]
	labels := sa.TestLabels()
	const eps = 0.2
	n := sa.Test.Len()
	if n > 300 {
		n = 300
	}
	series, err := sweep.Map(Workers(), len(fig7Monitors), func(i int) (fig7Series, error) {
		name := fig7Monitors[i]
		m, err := sa.MLMonitor(name)
		if err != nil {
			return fig7Series{}, err
		}
		x, err := m.InputMatrix(sa.Test.Samples[:n])
		if err != nil {
			return fig7Series{}, err
		}
		// The gradient pass records backward state, so it runs on a
		// private replica and the shared monitor stays safe for concurrent
		// inference.
		model, err := m.Model().Replicate()
		if err != nil {
			return fig7Series{}, err
		}
		adv, err := attack.FGSM(model, x, labels[:n], eps)
		if err != nil {
			return fig7Series{}, err
		}
		m.Normalizer().Invert(x)
		m.Normalizer().Invert(adv)
		var bgCol, iobCol int
		if name == "mlp" {
			bgCol, iobCol = dataset.MLPFeatLastBG, dataset.MLPFeatLastIOB
		} else {
			// last step of the window
			base := (a.Config.Window - 1) * dataset.SeqFeatureCount
			bgCol, iobCol = base+dataset.SeqFeatBG, base+dataset.SeqFeatIOB
		}
		return fig7Series{
			BGOrig:  x.Col(bgCol),
			BGAdv:   adv.Col(bgCol),
			IOBOrig: x.Col(iobCol),
			IOBAdv:  adv.Col(iobCol),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{
		Epsilon:     eps,
		BGOriginal:  map[string][]float64{},
		BGAdv:       map[string][]float64{},
		IOBOriginal: map[string][]float64{},
		IOBAdv:      map[string][]float64{},
	}
	for i, name := range fig7Monitors {
		res.BGOriginal[name] = series[i].BGOrig
		res.BGAdv[name] = series[i].BGAdv
		res.IOBOriginal[name] = series[i].IOBOrig
		res.IOBAdv[name] = series[i].IOBAdv
	}
	return res, nil
}

// Render summarizes the Fig. 7 traces (first samples plus perturbation
// statistics).
func (r *Fig7Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig 7: Example Input Data with/without White-box FGSM Attacks (ε=0.2)\n")
	for _, name := range fig7Monitors {
		bgO, bgA := r.BGOriginal[name], r.BGAdv[name]
		iobO, iobA := r.IOBOriginal[name], r.IOBAdv[name]
		var bgDelta, iobDelta float64
		for i := range bgO {
			bgDelta += abs(bgA[i] - bgO[i])
			iobDelta += abs(iobA[i] - iobO[i])
		}
		n := float64(len(bgO))
		fmt.Fprintf(&sb, "(%s) %d steps: mean |ΔBG| = %.2f mg/dL, mean |ΔIOB| = %.3f U\n",
			name, len(bgO), bgDelta/n, iobDelta/n)
		t := &table{header: []string{"step", "BG orig", "BG adv", "IOB orig", "IOB adv"}}
		for i := 0; i < len(bgO) && i < 8; i++ {
			t.addRow(fmt.Sprintf("%d", i), f2(bgO[i]), f2(bgA[i]), f3(iobO[i]), f3(iobA[i]))
		}
		sb.WriteString(t.String())
	}
	return sb.String()
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
