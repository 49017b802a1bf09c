package experiments

import (
	"math/rand"
	"strings"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/sweep"
)

// EvasionResult verifies the paper's §III premise: the studied perturbations
// are "small changes that cannot be detected by the current methods for
// sensor/input error detection and attack detection, such as … change
// detection techniques (e.g., CUSUM)". For every noise level and FGSM
// budget, it reports the fraction of perturbed episodes whose BG residual
// series never trips a CUSUM change detector watching the injected signal.
type EvasionResult struct {
	GaussianLevels []float64
	FGSMLevels     []float64
	// Evasion rates per simulator, aligned with the level slices.
	Gaussian map[string][]float64
	FGSM     map[string][]float64
}

// evasionPrep is the per-simulator shared state of the evasion sweep: the
// unperturbed episode series plus the LSTM monitor's attack surface. Built
// once per simulator, read concurrently by the level cells.
type evasionPrep struct {
	bgStd     float64
	lastBGCol int
	orig      [][]float64
	sf        *attackSurface
}

// episodeSeries slices a per-sample scalar into per-episode series.
func episodeSeries(test *dataset.Dataset, get func(i int) float64) [][]float64 {
	out := make([][]float64, 0, len(test.EpisodeIndex))
	for _, r := range test.EpisodeIndex {
		series := make([]float64, 0, r[1]-r[0])
		for i := r[0]; i < r[1]; i++ {
			series = append(series, get(i))
		}
		out = append(out, series)
	}
	return out
}

// Evasion computes CUSUM evasion rates for both perturbation families on
// both simulators, one (simulator, level) pair per sweep cell: the grid's
// level axis is the Gaussian levels, then the FGSM budgets, on the LSTM
// monitor alone. The detector watches the strongest possible signal — the
// raw perturbation residual in σ units.
func Evasion(a *Assets) (*EvasionResult, error) {
	// Per-simulator prep: the original series and the LSTM attack surface.
	built, err := sweep.Map(Workers(), len(Simulators), func(i int) (*evasionPrep, error) {
		sa := a.Sims[Simulators[i]]
		test := sa.Test
		p := &evasionPrep{
			bgStd:     test.SeqNorm.Std[dataset.SeqFeatBG],
			lastBGCol: (test.Window-1)*dataset.SeqFeatureCount + dataset.SeqFeatBG,
		}
		p.orig = episodeSeries(test, func(i int) float64 { return test.Samples[i].Seq[p.lastBGCol] })
		var err error
		p.sf, err = sa.surface("lstm")
		return p, err
	})
	if err != nil {
		return nil, err
	}
	preps := make(map[dataset.Simulator]*evasionPrep, len(Simulators))
	for i, simu := range Simulators {
		preps[simu] = built[i]
	}

	nG := len(GaussianLevels)
	grid, err := runGrid(a, gridSpec[float64]{
		monitors: []string{"lstm"},
		levels:   append(append([]float64(nil), GaussianLevels...), FGSMLevels...),
		tag:      tagEvasion,
		eval: func(c *GridCell) (float64, error) {
			p := preps[c.Sim]
			test := c.SA.Test
			var pert [][]float64
			if c.LevelIndex < nG {
				rng := rand.New(rand.NewSource(c.Seed))
				noisy, err := dataset.GaussianNoisySamples(rng, test, c.Level)
				if err != nil {
					return 0, cellErr("evasion gaussian", c, err)
				}
				pert = episodeSeries(test, func(i int) float64 { return noisy[i].Seq[p.lastBGCol] })
			} else {
				// FGSM on the monitor input space, denormalized back to
				// mg/dL. FGSMStep returns a fresh matrix, so inverting it in
				// place leaves the shared surface untouched.
				adv, err := attack.FGSMStep(p.sf.x, p.sf.grad, c.Level)
				if err != nil {
					return 0, cellErr("evasion fgsm", c, err)
				}
				p.sf.m.Normalizer().Invert(adv)
				pert = episodeSeries(test, func(i int) float64 { return adv.At(i, p.lastBGCol) })
			}
			return attack.EvasionRate(p.orig, pert, p.bgStd)
		},
	})
	if err != nil {
		return nil, err
	}

	res := &EvasionResult{
		GaussianLevels: GaussianLevels,
		FGSMLevels:     FGSMLevels,
		Gaussian:       map[string][]float64{},
		FGSM:           map[string][]float64{},
	}
	for _, simu := range Simulators {
		rates := grid[simu.String()]["lstm"]
		res.Gaussian[simu.String()] = rates[:nG:nG]
		res.FGSM[simu.String()] = rates[nG:]
	}
	return res, nil
}

// Render formats the evasion table.
func (r *EvasionResult) Render() string {
	var sb strings.Builder
	sb.WriteString("CUSUM Evasion Rates (fraction of perturbed episodes never detected)\n")
	t := &table{header: append([]string{"Simulator / Gaussian"}, levelsHeader("σ", r.GaussianLevels)...)}
	for _, simu := range Simulators {
		cells := []string{simu.String()}
		for _, v := range r.Gaussian[simu.String()] {
			cells = append(cells, f2(v))
		}
		t.addRow(cells...)
	}
	sb.WriteString(t.String())
	t2 := &table{header: append([]string{"Simulator / FGSM"}, levelsHeader("ε", r.FGSMLevels)...)}
	for _, simu := range Simulators {
		cells := []string{simu.String()}
		for _, v := range r.FGSM[simu.String()] {
			cells = append(cells, f2(v))
		}
		t2.addRow(cells...)
	}
	sb.WriteString(t2.String())
	return sb.String()
}
