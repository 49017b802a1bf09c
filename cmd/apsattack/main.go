// Command apsattack trains a monitor and attacks it with Gaussian noise,
// white-box FGSM, or a black-box substitute transfer attack, reporting F1
// degradation and robustness error.
//
// Usage:
//
//	apsattack [-sim glucosym|t1ds] [-arch mlp|lstm] [-semantic]
//	          [-attack gaussian|fgsm|pgd|blackbox] [-level σ|ε]
//	          [-report] [-report-out report.json]
//	          [-parallel N] [-precision f64|f32] [-cache DIR] [-no-cache]
//
// -report renders the sliced evaluation reports (per-scenario and
// per-fault-type F1 + detection latency) of the clean monitor and of the
// attacked predictions side by side, so degradation can be localized to the
// campaign slice it hits; -report-out additionally writes the report set as
// JSON.
//
// The campaign and the target monitor are cached content-addressed under
// -cache (default $APSREPRO_CACHE or ~/.cache/apsrepro), so repeated attack
// runs against the same training setup skip simulation and training and go
// straight to the attack. Cache events are logged to stderr.
//
// Every attack arm only builds its attacked input matrix (Gaussian-noised
// windows, FGSM/PGD on a replica of the model, or FGSM transferred from a
// substitute's gradient); one shared tail classifies it, scores it with
// the tolerance-window metric and computes the Eq (5) robustness error
// against the clean classes.
//
// -parallel N sets the worker budget shared by monitor training (the
// per-block forward/backward fan-out), matrix products, and episode scoring; trained
// weights and attack outputs are byte-identical at every setting.
// -precision f32 routes monitor inference (clean scoring, the black-box
// queries and the attacked-prediction passes) through the frozen float32
// engine; gradient-based attack crafting stays on the f64 training model.
// Both reach scoring as explicit eval.Options. The pgd attack threads the semantic
// knowledge indicators through every gradient step when the target was
// trained with -semantic, so Custom monitors are attacked on the Eq (2)
// loss surface they were trained on.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"runtime"

	"repro/internal/attack"
	"repro/internal/cliconfig"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/monitor"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "apsattack:", err)
		os.Exit(1)
	}
}

// appFlags is apsattack's full flag surface, registered by addFlags so the
// help golden test can render it.
type appFlags struct {
	common *cliconfig.Common
	simu   *string
	arch   *string
	epochs *int

	semantic  *bool
	kind      *string
	level     *float64
	report    *bool
	reportOut *string
}

func addFlags(fs *flag.FlagSet) *appFlags {
	f := &appFlags{
		common: cliconfig.AddCommon(fs, cliconfig.CommonDefaults{
			Seed:      1,
			Parallel:  runtime.GOMAXPROCS(0),
			Precision: monitor.F64,
		}),
		simu:   cliconfig.AddSim(fs),
		arch:   cliconfig.AddArch(fs),
		epochs: cliconfig.AddEpochs(fs, 15),
	}
	f.semantic = fs.Bool("semantic", false, "train the monitor with the semantic loss")
	f.kind = fs.String("attack", "fgsm", "attack: gaussian, fgsm, pgd, or blackbox")
	f.level = fs.Float64("level", 0.1, "σ (gaussian) or ε (fgsm/pgd/blackbox)")
	f.report = fs.Bool("report", false, "render clean and attacked sliced evaluation reports")
	f.reportOut = fs.String("report-out", "", "write the JSON report set here (implies -report)")
	return f
}

// run parses args into fs and runs one attack, writing the report to
// stdout.
func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	f := addFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	parallel, err := f.common.ApplyBudget()
	if err != nil {
		return err
	}
	prec, err := monitor.ParsePrecision(string(f.common.Precision))
	if err != nil {
		return err
	}
	if *f.reportOut != "" {
		*f.report = true
	}
	store := f.common.OpenStore(log.Printf)

	simu, err := cliconfig.ParseSimulator(*f.simu)
	if err != nil {
		return err
	}
	a, err := cliconfig.ParseArch(*f.arch)
	if err != nil {
		return err
	}

	// The attack campaign shape is fixed (apstrain's default): attacks
	// compare monitors, not campaign sizes.
	camp, err := f.common.CampaignConfig(simu, &cliconfig.Shape{Profiles: 10, Episodes: 4, Steps: 150}, parallel)
	if err != nil {
		return err
	}
	seed := f.common.Seed
	const trainFrac = 0.75
	ds, _, err := experiments.CachedCampaign(store, camp)
	if err != nil {
		return err
	}
	train, test, err := ds.Split(trainFrac)
	if err != nil {
		return err
	}
	m, _, err := experiments.CachedMonitor(store, train, camp, trainFrac, monitor.TrainConfig{
		Arch: a, Semantic: *f.semantic, Epochs: *f.epochs, Seed: seed, Workers: parallel,
	})
	if err != nil {
		return err
	}

	const delta = 12
	opts := eval.Options{Tolerance: delta, Workers: parallel, Precision: prec}
	classes := func(x *mat.Matrix) ([]int, error) {
		pred := make([]int, x.Rows())
		return pred, m.ClassifyInto(prec, x, pred, nil)
	}

	// The clean report's overall confusion supplies the summary line; -report
	// also renders its slices.
	cleanRep, err := eval.Evaluate(m, test, opts)
	if err != nil {
		return err
	}
	clean := cleanRep.Overall.Confusion
	fmt.Fprintf(stdout, "monitor %s on %s: clean F1=%.3f ACC=%.3f\n", m.Name(), simu, clean.F1(), clean.Accuracy())

	// Every arm only builds its attacked input matrix; the shared tail
	// classifies it and scores it against the clean classes.
	x, err := m.InputMatrix(test.Samples)
	if err != nil {
		return err
	}
	orig, err := classes(x)
	if err != nil {
		return err
	}
	level := *f.level
	var adv *mat.Matrix
	var what string
	switch *f.kind {
	case "gaussian":
		what = fmt.Sprintf("gaussian σ=%.2f·std", level)
		noisy, err := dataset.GaussianNoisySamples(rand.New(rand.NewSource(seed+5)), test, level)
		if err != nil {
			return err
		}
		if adv, err = m.InputMatrix(noisy); err != nil {
			return err
		}
	case "fgsm", "pgd":
		// The gradient pass records backward state, so it runs on a
		// replica and leaves the monitor's model untouched.
		model, err := m.Model().Replicate()
		if err != nil {
			return err
		}
		if *f.kind == "fgsm" {
			what = fmt.Sprintf("white-box FGSM ε=%.2f", level)
			adv, err = attack.FGSM(model, x, test.Labels(), level)
		} else {
			what = fmt.Sprintf("white-box PGD ε=%.2f (10 steps)", level)
			adv, err = attack.PGDWithKnowledge(model, x, test.Labels(), test.Knowledge(), attack.PGDConfig{Eps: level})
		}
		if err != nil {
			return err
		}
	case "blackbox":
		what = fmt.Sprintf("black-box FGSM ε=%.2f (substitute transfer)", level)
		qx, err := m.InputMatrix(train.Samples)
		if err != nil {
			return err
		}
		qPred, err := classes(qx)
		if err != nil {
			return err
		}
		sub, err := attack.TrainSubstitute(qx, qPred, attack.SubstituteConfig{Epochs: 30, Seed: seed + 9})
		if err != nil {
			return err
		}
		grad, err := sub.InputGradient(x, orig, nil)
		if err != nil {
			return err
		}
		if adv, err = attack.FGSMStep(x, grad, level); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown attack %q", *f.kind)
	}

	advPred, err := classes(adv)
	if err != nil {
		return err
	}
	re, err := metrics.RobustnessError(orig, advPred)
	if err != nil {
		return err
	}
	advRep, err := eval.EvaluatePredictions(fmt.Sprintf("%s+%s@%.2f", m.Name(), *f.kind, level), advPred, test, opts)
	if err != nil {
		return err
	}
	if *f.kind == "blackbox" {
		fmt.Fprintf(stdout, "%s: robustness error=%.3f\n", what, re)
	} else {
		c := advRep.Overall.Confusion
		fmt.Fprintf(stdout, "%s: F1=%.3f (Δ=%.3f), robustness error=%.3f\n", what, c.F1(), clean.F1()-c.F1(), re)
	}

	if *f.report {
		set := &eval.Set{Tolerance: delta, Reports: []*eval.Report{cleanRep, advRep}}
		fmt.Fprint(stdout, experiments.RenderReportSet(set))
		if *f.reportOut != "" {
			file, err := os.Create(*f.reportOut)
			if err != nil {
				return err
			}
			defer file.Close()
			if err := set.Save(file); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "report set written to %s\n", *f.reportOut)
		}
	}
	return nil
}
