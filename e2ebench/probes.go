package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/mat"
	"repro/internal/mat32"
	"repro/internal/monitor"
	"repro/internal/nn"
)

// The probes time single layers' public calls from outside, at the shapes
// the workload itself uses, so the traced run can say which layer a change
// moved. Each probe records a span per call under a "probe" parent; a
// metric is the median call.

// blockRows is the row block the trainer and the fused serving kernel use.
const blockRows = 32

// probeReps is how many times each sub-millisecond call is repeated.
const probeReps = 64

// timeCall runs fn once inside a span and returns its duration.
func timeCall(tr *tracer, parent int, name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := tr.do(parent, name, fn)
	return time.Since(t0), err
}

// repeat runs fn reps times, one span each, and returns the median call.
func repeat(tr *tracer, parent int, name string, reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		d, err := timeCall(tr, parent, name, fn)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// campaign mirrors the campaign experiments.Build generates for simu.
func campaign(cfg experiments.Config, simu dataset.Simulator, workers int) dataset.CampaignConfig {
	return dataset.CampaignConfig{
		Simulator: simu, Profiles: cfg.Profiles, EpisodesPerProfile: cfg.EpisodesPerProfile,
		Steps: cfg.Steps, Window: cfg.Window, Horizon: cfg.Horizon, BGTarget: cfg.BGTarget,
		Seed: cfg.Seed, Scenarios: cfg.Scenarios, Workers: workers,
	}
}

// trainConfig mirrors the recipe experiments uses for the plain mlp and
// lstm monitors.
func trainConfig(cfg experiments.Config, arch monitor.Arch, workers int) monitor.TrainConfig {
	h1, h2 := cfg.MLPHidden1, cfg.MLPHidden2
	if arch == monitor.ArchLSTM {
		h1, h2 = cfg.LSTMHidden1, cfg.LSTMHidden2
	}
	return monitor.TrainConfig{Arch: arch, Epochs: cfg.Epochs, Hidden1: h1, Hidden2: h2, Seed: cfg.Seed + 17, Workers: workers}
}

// coldProbes times the layers cold-train exercises: simulation, windowing,
// splitting, monitor training, evaluation, and the nn and mat kernels under
// them.
func coldProbes(cfg experiments.Config, tr *tracer, m map[string]float64, workers int) error {
	root := tr.begin(0, "probe")
	defer tr.end(root)
	var simS, genS, splitMS, episodes, windows float64
	var gluTrain, gluTest *dataset.Dataset
	for _, simu := range experiments.Simulators {
		camp := campaign(cfg, simu, workers)
		var traces int
		d, err := timeCall(tr, root, "sim.campaign", func() error {
			t, err := dataset.RunCampaign(camp)
			traces = len(t)
			return err
		})
		if err != nil {
			return err
		}
		simS += d.Seconds()
		episodes += float64(traces)
		var ds *dataset.Dataset
		if d, err = timeCall(tr, root, "dataset.generate", func() (err error) { ds, err = dataset.Generate(camp); return err }); err != nil {
			return err
		}
		genS += d.Seconds()
		windows += float64(ds.Len())
		var train, test *dataset.Dataset
		if d, err = timeCall(tr, root, "dataset.split", func() (err error) { train, test, err = ds.Split(cfg.TrainFrac); return err }); err != nil {
			return err
		}
		splitMS += millis(d)
		if simu == dataset.Glucosym {
			gluTrain, gluTest = train, test
		}
	}
	m["sim.campaign_s"], m["sim.episodes"] = simS, episodes
	m["dataset.generate_s"], m["dataset.split_ms"], m["dataset.windows"] = genS, splitMS, windows

	var trained []*monitor.MLMonitor // the MLP, then the LSTM
	var trainS float64
	for _, arch := range []monitor.Arch{monitor.ArchMLP, monitor.ArchLSTM} {
		tc := trainConfig(cfg, arch, workers)
		var mon *monitor.MLMonitor
		d, err := timeCall(tr, root, "monitor.train", func() (err error) { mon, err = monitor.Train(gluTrain, tc); return err })
		if err != nil {
			return err
		}
		trained = append(trained, mon)
		trainS += d.Seconds()
		if arch == monitor.ArchMLP {
			m["monitor.train_mlp_s"] = d.Seconds()
		} else {
			m["monitor.train_lstm_s"] = d.Seconds()
		}
	}
	m["monitor.train_windows_per_s"] = float64(2*cfg.Epochs*gluTrain.Len()) / trainS

	mlp := trained[0]
	d, err := timeCall(tr, root, "eval.evaluate", func() error {
		_, err := eval.Evaluate(mlp, gluTest, eval.Options{Tolerance: cfg.ToleranceDelta, Workers: workers, Precision: eval.PrecisionF64})
		return err
	})
	if err != nil {
		return err
	}
	m["eval.evaluate_s"] = d.Seconds()
	m["eval.windows_per_s"] = float64(gluTest.Len()) / d.Seconds()
	return modelProbes(tr, root, m, trained, gluTest, workers)
}

// attackProbes times the layers warm-attack exercises: noise, FGSM, the
// substitute model and black-box transfer, CUSUM evasion, f64 inference,
// input gradients and scoring. Monitors load from the filled store.
func attackProbes(cfg experiments.Config, tr *tracer, m map[string]float64, workers int) error {
	root := tr.begin(0, "probe")
	defer tr.end(root)
	a, err := experiments.Build(cfg)
	if err != nil {
		return err
	}
	sa := a.Sims[dataset.Glucosym]
	var trained []*monitor.MLMonitor // the MLP, then the LSTM
	for _, name := range []string{"mlp", "lstm"} {
		mon, err := sa.MLMonitor(name)
		if err != nil {
			return err
		}
		trained = append(trained, mon)
	}
	mlp := trained[0]
	test := sa.Test
	x, err := mlp.InputMatrix(test.Samples)
	if err != nil {
		return err
	}
	labels := test.Labels()
	const eps, sigma = 0.1, 0.5

	rng := rand.New(rand.NewSource(cfg.Seed))
	d, err := timeCall(tr, root, "dataset.noise", func() error {
		_, err := dataset.GaussianNoisySamples(rng, test, sigma)
		return err
	})
	if err != nil {
		return err
	}
	m["dataset.noise_s"] = d.Seconds()

	var adv *mat.Matrix
	if d, err = timeCall(tr, root, "attack.fgsm", func() (err error) { adv, err = attack.FGSM(mlp.Model(), x, labels, eps); return err }); err != nil {
		return err
	}
	m["attack.fgsm_s"] = d.Seconds()

	pred, err := mlp.PredictClasses(x)
	if err != nil {
		return err
	}
	var sub *nn.Model
	if d, err = timeCall(tr, root, "attack.substitute", func() (err error) {
		sub, err = attack.TrainSubstitute(x, pred, attack.SubstituteConfig{Seed: cfg.Seed})
		return err
	}); err != nil {
		return err
	}
	m["attack.substitute_s"] = d.Seconds()
	if d, err = timeCall(tr, root, "attack.blackbox", func() error {
		_, err := attack.BlackBoxFGSM(sub, x, labels, eps)
		return err
	}); err != nil {
		return err
	}
	m["attack.blackbox_s"] = d.Seconds()

	orig, pert := make([][]float64, x.Rows()), make([][]float64, x.Rows())
	for i := range orig {
		orig[i], pert[i] = x.Row(i), adv.Row(i)
	}
	if d, err = timeCall(tr, root, "attack.evasion", func() error {
		_, err := attack.EvasionRate(orig, pert, 1)
		return err
	}); err != nil {
		return err
	}
	m["attack.evasion_s"] = d.Seconds()

	if d, err = timeCall(tr, root, "eval.score", func() error {
		_, err := eval.EvaluatePredictions("mlp", pred, test, eval.Options{Tolerance: cfg.ToleranceDelta, Workers: workers, Precision: eval.PrecisionF64})
		return err
	}); err != nil {
		return err
	}
	m["eval.score_s"] = d.Seconds()
	return modelProbes(tr, root, m, trained, test, workers)
}

// modelProbes times the nn layers, optimizer and mat kernels of the trained
// MLP and LSTM monitors (in that order) at their own shapes: 32-row blocks
// of real test windows, as the trainer and the fused kernel see them. The
// trainer-step and Adam metrics are means over the two models.
func modelProbes(tr *tracer, root int, m map[string]float64, trained []*monitor.MLMonitor, test *dataset.Dataset, workers int) error {
	for _, mon := range trained {
		x, err := mon.InputMatrix(test.Samples)
		if err != nil {
			return err
		}
		labels, knowledge := test.Labels(), test.Knowledge()
		if mon.Arch() == monitor.ArchMLP {
			d, err := repeat(tr, root, "monitor.input_matrix", 8, func() error {
				_, err := mon.InputMatrix(test.Samples)
				return err
			})
			if err != nil {
				return err
			}
			m["monitor.input_matrix_ms"] = millis(d)
			if d, err = repeat(tr, root, "nn.input_grad", 8, func() error {
				_, err := mon.Model().InputGradient(x, labels, knowledge)
				return err
			}); err != nil {
				return err
			}
			m["nn.input_grad_ms"] = millis(d)
			if d, err = repeat(tr, root, "nn.predict", 8, func() error {
				_, err := mon.Model().PredictClasses(x)
				return err
			}); err != nil {
				return err
			}
			m["nn.predict_ms"] = millis(d)
		}
		model, err := mon.Model().Clone()
		if err != nil {
			return err
		}
		n := blockRows
		if x.Rows() < n {
			n = x.Rows()
		}
		block, err := x.SliceRows(0, n)
		if err != nil {
			return err
		}
		if err := layerProbes(tr, root, m, model, block); err != nil {
			return err
		}
		step := nn.NewTrainer(model, nn.NewAdam(0.001), workers)
		d, err := repeat(tr, root, "nn.trainer_step", 8, func() error {
			_, err := step.Step(block, labels[:n], knowledge[:n])
			return err
		})
		if err != nil {
			return err
		}
		m["nn.trainer_step_ms"] += millis(d) / float64(len(trained))
		adam := nn.NewAdam(0.001)
		if d, err = repeat(tr, root, "nn.adam_step", probeReps, func() error { return adam.Step(model.Params()) }); err != nil {
			return err
		}
		m["nn.adam_step_us"] += micros(d) / float64(len(trained))
	}
	return nil
}

// layerProbes pushes block through model's layers, timing Forward and
// Backward of each Dense and LSTM layer, and the matrix kernels at the
// first Dense shape probed.
func layerProbes(tr *tracer, root int, m map[string]float64, model *nn.Model, block *mat.Matrix) error {
	h := block
	for _, l := range model.Layers() {
		var kind string
		switch l.(type) {
		case *nn.Dense:
			kind = "dense"
		case *nn.LSTM:
			kind = "lstm"
		}
		if kind == "" {
			out, err := l.Forward(h)
			if err != nil {
				return err
			}
			h = out
			continue
		}
		var out *mat.Matrix
		fwd, err := repeat(tr, root, "nn."+kind+"_fwd", probeReps, func() (err error) { out, err = l.Forward(h); return err })
		if err != nil {
			return err
		}
		grad := mat.New(out.Rows(), out.Cols())
		grad.Fill(0.01)
		bwd, err := repeat(tr, root, "nn."+kind+"_bwd", probeReps, func() error { _, err := l.Backward(grad); return err })
		if err != nil {
			return err
		}
		// A metric sums the layer kind's calls along one forward pass.
		m["nn."+kind+"_fwd_us"] += micros(fwd)
		m["nn."+kind+"_bwd_us"] += micros(bwd)
		if kind == "dense" && m["mat.matmul_gflops"] == 0 {
			if err := matProbes(tr, root, m, h, l.Params()[0].W, grad); err != nil {
				return err
			}
		}
		h = out
	}
	return nil
}

// matProbes times the f64 kernels at one Dense layer's shapes: the forward
// product x·W (MatMul) and the weight gradient W += xᵀ·g (TMatMulAddInto).
func matProbes(tr *tracer, root int, m map[string]float64, x, w, g *mat.Matrix) error {
	flops := 2 * float64(x.Rows()*x.Cols()*w.Cols())
	d, err := repeat(tr, root, "mat.matmul", probeReps, func() error { _, err := mat.MatMul(x, w); return err })
	if err != nil {
		return err
	}
	m["mat.matmul_gflops"] = flops / d.Seconds() / 1e9
	dw := mat.New(w.Rows(), w.Cols())
	if d, err = repeat(tr, root, "mat.tmatmul_add", probeReps, func() error { return mat.TMatMulAddInto(dw, x, g) }); err != nil {
		return err
	}
	m["mat.tmatmul_add_gflops"] = flops / d.Seconds() / 1e9
	return nil
}

// serveProbes times the frozen float32 kernel the server classifies with,
// at one row (a bypass or lone request) and at the fused batch of 32.
func serveProbes(mon *monitor.MLMonitor, tr *tracer, m map[string]float64) error {
	root := tr.begin(0, "probe")
	defer tr.end(root)
	im, err := mon.Frozen()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{1, blockRows} {
		// Normalized inputs are roughly standard normal.
		x := mat32.New(rows, im.InputSize())
		for i := range x.Data() {
			x.Data()[i] = float32(rng.NormFloat64())
		}
		classes, conf := make([]int, rows), make([]float64, rows)
		d, err := repeat(tr, root, fmt.Sprintf("mat32.classify_b%d", rows), probeReps*4, func() error { return im.ClassifyInto(x, classes, conf) })
		if err != nil {
			return err
		}
		m[fmt.Sprintf("mat32.classify_b%d_us", rows)] = micros(d)
	}
	return nil
}
