package experiments

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/sweep"
)

// matBits serializes m bit-exactly (shape, then every element's IEEE bits).
func matBits(m *mat.Matrix) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(m.Rows()))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.Cols()))
	for _, v := range m.Data() {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// surfaceRefs assembles the Fig 8, Fig 9, Fig 10 and evasion-FGSM numbers
// from the primitives (InputMatrix, attack.FGSM on a replica, ClassifyInto,
// eval.EvaluatePredictions and metrics.RobustnessError), recomputing every
// clean matrix, clean prediction and gradient per cell: the path the sweeps
// took before they shared one attack surface per (simulator, monitor).
type surfaceRefs struct {
	fig8, fig9g, fig9f map[string]map[string][]float64
	fig10              map[string]map[string][]float64
	evasion            map[string][]float64
}

func perCellRefs(t *testing.T, a *Assets, prec monitor.Precision) surfaceRefs {
	t.Helper()
	classify := func(m *monitor.MLMonitor, x *mat.Matrix) []int {
		pred := make([]int, x.Rows())
		if err := m.ClassifyInto(prec, x, pred, nil); err != nil {
			t.Fatal(err)
		}
		return pred
	}
	input := func(m *monitor.MLMonitor, samples []dataset.Sample) *mat.Matrix {
		x, err := m.InputMatrix(samples)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	robustness := func(orig, pert []int) float64 {
		re, err := metrics.RobustnessError(orig, pert)
		if err != nil {
			t.Fatal(err)
		}
		return re
	}
	fgsm := func(m *monitor.MLMonitor, x *mat.Matrix, labels []int, eps float64) *mat.Matrix {
		model, err := m.Model().Replicate()
		if err != nil {
			t.Fatal(err)
		}
		adv, err := attack.FGSM(model, x, labels, eps)
		if err != nil {
			t.Fatal(err)
		}
		return adv
	}
	r := surfaceRefs{
		fig8:    map[string]map[string][]float64{},
		fig9g:   map[string]map[string][]float64{},
		fig9f:   map[string]map[string][]float64{},
		fig10:   map[string]map[string][]float64{},
		evasion: map[string][]float64{},
	}
	gauss := sweep.NewGrid(len(Simulators), len(MLMonitorNames), len(GaussianLevels))
	gaussBase := sweep.Derive(a.Config.Seed, tagFig9)
	pairs := sweep.NewGrid(len(Simulators), len(MLMonitorNames))
	pairBase := sweep.Derive(a.Config.Seed, tagFig10)
	for si, simu := range Simulators {
		sa := a.Sims[simu]
		labels := sa.Test.Labels()
		sim := simu.String()
		r.fig8[sim], r.fig9g[sim], r.fig9f[sim], r.fig10[sim] =
			map[string][]float64{}, map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
		for mi, name := range MLMonitorNames {
			m, err := sa.MLMonitor(name)
			if err != nil {
				t.Fatal(err)
			}
			for li, sigma := range GaussianLevels {
				orig := classify(m, input(m, sa.Test.Samples))
				rng := rand.New(rand.NewSource(sweep.CellSeed(gaussBase, gauss.Index(si, mi, li))))
				noisy, err := dataset.GaussianNoisySamples(rng, sa.Test, sigma)
				if err != nil {
					t.Fatal(err)
				}
				pert := classify(m, input(m, noisy))
				r.fig9g[sim][name] = append(r.fig9g[sim][name], robustness(orig, pert))
			}
			for _, eps := range FGSMLevels {
				x := input(m, sa.Test.Samples)
				advPred := classify(m, fgsm(m, x, labels, eps))
				rep, err := eval.EvaluatePredictions("", advPred, sa.Test, eval.Options{Tolerance: a.Config.ToleranceDelta, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				r.fig8[sim][name] = append(r.fig8[sim][name], rep.Overall.Confusion.F1())
				r.fig9f[sim][name] = append(r.fig9f[sim][name], robustness(classify(m, x), advPred))
			}

			qx := input(m, sa.Train.Samples)
			if qx.Rows() > blackBoxQueryBudget {
				var err error
				if qx, err = qx.SliceRows(0, blackBoxQueryBudget); err != nil {
					t.Fatal(err)
				}
			}
			qPred, err := m.PredictClasses(qx)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := attack.TrainSubstitute(qx, qPred, attack.SubstituteConfig{
				Epochs: a.Config.Epochs,
				Seed:   sweep.CellSeed(pairBase, pairs.Index(si, mi)),
			})
			if err != nil {
				t.Fatal(err)
			}
			tx := input(m, sa.Test.Samples)
			tPred, err := m.PredictClasses(tx)
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range FGSMLevels {
				adv, err := attack.BlackBoxFGSM(sub, tx, tPred, eps)
				if err != nil {
					t.Fatal(err)
				}
				advPred, err := m.PredictClasses(adv)
				if err != nil {
					t.Fatal(err)
				}
				r.fig10[sim][name] = append(r.fig10[sim][name], robustness(tPred, advPred))
			}
		}

		lstm, err := sa.MLMonitor("lstm")
		if err != nil {
			t.Fatal(err)
		}
		test := sa.Test
		col := (test.Window-1)*dataset.SeqFeatureCount + dataset.SeqFeatBG
		orig := episodeSeries(test, func(i int) float64 { return test.Samples[i].Seq[col] })
		for _, eps := range FGSMLevels {
			adv := fgsm(lstm, input(lstm, test.Samples), labels, eps)
			lstm.Normalizer().Invert(adv)
			pert := episodeSeries(test, func(i int) float64 { return adv.At(i, col) })
			rate, err := attack.EvasionRate(orig, pert, test.SeqNorm.Std[dataset.SeqFeatBG])
			if err != nil {
				t.Fatal(err)
			}
			r.evasion[sim] = append(r.evasion[sim], rate)
		}
	}
	return r
}

func sameSeries(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d levels, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s level %d: sweep %v, per-cell reference %v", what, i, got[i], want[i])
		}
	}
}

// TestAttackSurfaceMatchesPerCellPath pins that sharing one attack surface
// per (simulator, monitor) changes no number: under both precisions, Figs
// 8, 9 and 10 and the evasion FGSM rates equal a reference assembled cell
// by cell from the primitives. It then checks that Fig 10 ignores the
// configured-precision clean classes and that no cell wrote to the shared
// clean matrix or gradient.
func TestAttackSurfaceMatchesPerCellPath(t *testing.T) {
	a, err := Build(tinyCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func(prev monitor.Precision) { _ = Configure(0, prev) }(Precision())
	var want surfaceRefs
	for _, prec := range []monitor.Precision{monitor.F64, monitor.F32} {
		if err := Configure(4, prec); err != nil {
			t.Fatal(err)
		}
		want = perCellRefs(t, a, prec)
		f8, err := Fig8(a)
		if err != nil {
			t.Fatal(err)
		}
		f9, err := Fig9Both(a)
		if err != nil {
			t.Fatal(err)
		}
		f10, err := Fig10(a)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Evasion(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, simu := range Simulators {
			sim := simu.String()
			for _, name := range MLMonitorNames {
				row := rowLabel(name, sim)
				sameSeries(t, string(prec)+" fig8 "+row, f8.F1[sim][name], want.fig8[sim][name])
				sameSeries(t, string(prec)+" fig9 gaussian "+row, f9.Gaussian.Errors[row], want.fig9g[sim][name])
				sameSeries(t, string(prec)+" fig9 fgsm "+row, f9.FGSM.Errors[row], want.fig9f[sim][name])
				sameSeries(t, string(prec)+" fig10 "+row, f10.Errors[row], want.fig10[sim][name])
			}
			sameSeries(t, string(prec)+" evasion fgsm "+sim, ev.FGSM[sim], want.evasion[sim])
		}
	}

	// Fig 10 reads the f64 clean classes whatever the precision: with the
	// surfaces' f32 classes poisoned, the f32 run must not move.
	for _, simu := range Simulators {
		for _, name := range MLMonitorNames {
			sf, err := a.Sims[simu].surface(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range sf.f32.v {
				sf.f32.v[i] = 1 - c
			}
		}
	}
	f10, err := Fig10(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, simu := range Simulators {
		for _, name := range MLMonitorNames {
			row := rowLabel(name, simu.String())
			sameSeries(t, "poisoned f32 fig10 "+row, f10.Errors[row], want.fig10[simu.String()][name])
		}
	}

	for _, simu := range Simulators {
		sa := a.Sims[simu]
		for _, name := range MLMonitorNames {
			sf, err := sa.surface(name)
			if err != nil {
				t.Fatal(err)
			}
			x, err := sf.m.InputMatrix(sa.Test.Samples)
			if err != nil {
				t.Fatal(err)
			}
			model, err := sf.m.Model().Clone()
			if err != nil {
				t.Fatal(err)
			}
			grad, err := model.InputGradient(x, sa.Test.Labels(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(matBits(sf.x), matBits(x)) {
				t.Fatalf("%v %s: a sweep wrote to the shared clean matrix", simu, name)
			}
			if !bytes.Equal(matBits(sf.grad), matBits(grad)) {
				t.Fatalf("%v %s: a sweep wrote to the shared gradient", simu, name)
			}
		}
	}
}

// TestFGSMClassesMemoized pins the memo behind fgsmClasses: at 8 workers,
// after Fig 8 and Fig 9's FGSM heatmap, every attack surface holds exactly
// one slot per FGSM level for each precision run so far, each equal to a
// fresh classification of the FGSM inputs, and a later read returns the
// memoized slice instead of classifying again.
func TestFGSMClassesMemoized(t *testing.T) {
	a, err := Build(tinyCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func(prev monitor.Precision) { _ = Configure(0, prev) }(Precision())
	for run, prec := range []monitor.Precision{monitor.F64, monitor.F32} {
		if err := Configure(8, prec); err != nil {
			t.Fatal(err)
		}
		if _, err := Fig8(a); err != nil {
			t.Fatal(err)
		}
		if _, err := Fig9FGSM(a); err != nil {
			t.Fatal(err)
		}
		for _, simu := range Simulators {
			for _, name := range MLMonitorNames {
				sf, err := a.Sims[simu].surface(name)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := len(sf.fgsm), (run+1)*len(FGSMLevels); got != want {
					t.Fatalf("%v %s %s: %d FGSM slots, want %d", simu, name, prec, got, want)
				}
				for _, eps := range FGSMLevels {
					l, ok := sf.fgsm[fgsmKey{p: prec, eps: math.Float64bits(eps)}]
					if !ok {
						t.Fatalf("%v %s %s ε=%v: no memoized slot", simu, name, prec, eps)
					}
					adv, err := attack.FGSMStep(sf.x, sf.grad, eps)
					if err != nil {
						t.Fatal(err)
					}
					fresh := make([]int, adv.Rows())
					if err := sf.m.ClassifyInto(prec, adv, fresh, nil); err != nil {
						t.Fatal(err)
					}
					if len(l.v) != len(fresh) {
						t.Fatalf("%v %s %s ε=%v: %d memoized classes, want %d", simu, name, prec, eps, len(l.v), len(fresh))
					}
					for i := range fresh {
						if l.v[i] != fresh[i] {
							t.Fatalf("%v %s %s ε=%v: memoized class %d = %d, fresh %d", simu, name, prec, eps, i, l.v[i], fresh[i])
						}
					}
					again, err := sf.fgsmClasses(eps)
					if err != nil {
						t.Fatal(err)
					}
					if len(again) > 0 && &again[0] != &l.v[0] {
						t.Fatalf("%v %s %s ε=%v: a second read classified again", simu, name, prec, eps)
					}
				}
			}
		}
	}
}
