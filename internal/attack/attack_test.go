package attack

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/nn"
)

// trainedToyModel returns an MLP fit to a separable 2-D problem along with
// its training data and labels.
func trainedToyModel(t *testing.T, seed int64) (*nn.Model, *mat.Matrix, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 300
	x := mat.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if a+b > 0 {
			labels[i] = 1
		}
	}
	m, err := nn.NewMLPClassifier(rng, 2, nn.MLPConfig{Hidden1: 16, Hidden2: 8})
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewAdam(0.01)
	for e := 0; e < 150; e++ {
		if _, err := m.TrainBatch(x, labels, nil, opt); err != nil {
			t.Fatal(err)
		}
	}
	return m, x, labels
}

// crossEntropy is the toy model's training loss on a batch.
func crossEntropy(t *testing.T, m *nn.Model, x *mat.Matrix, labels []int) float64 {
	t.Helper()
	logits, err := m.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	loss, _, err := nn.CrossEntropy{}.Compute(logits, labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	return loss
}

func TestFGSMIncreasesLoss(t *testing.T) {
	m, x, labels := trainedToyModel(t, 10)
	before := crossEntropy(t, m, x, labels)
	adv, err := FGSM(m, x, labels, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	after := crossEntropy(t, m, adv, labels)
	if after <= before {
		t.Fatalf("FGSM must increase loss: %v → %v", before, after)
	}
}

func TestFGSMFlipsPredictions(t *testing.T) {
	m, x, labels := trainedToyModel(t, 11)
	orig, err := m.PredictClasses(x)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := FGSM(m, x, labels, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pert, err := m.PredictClasses(adv)
	if err != nil {
		t.Fatal(err)
	}
	re, err := metrics.RobustnessError(orig, pert)
	if err != nil {
		t.Fatal(err)
	}
	if re == 0 {
		t.Fatal("large-ε FGSM should flip some predictions")
	}
}

func TestFGSMLinfBudget(t *testing.T) {
	m, x, labels := trainedToyModel(t, 12)
	eps := 0.07
	adv, err := FGSM(m, x, labels, eps)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := mat.SubM(adv, x)
	if err != nil {
		t.Fatal(err)
	}
	if diff.MaxAbs() > eps+1e-12 {
		t.Fatalf("L∞ budget violated: %v > %v", diff.MaxAbs(), eps)
	}
}

func TestFGSMMonotoneInEpsilon(t *testing.T) {
	m, x, labels := trainedToyModel(t, 13)
	orig, err := m.PredictClasses(x)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, eps := range []float64{0.01, 0.1, 0.3, 0.6} {
		adv, err := FGSM(m, x, labels, eps)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := m.PredictClasses(adv)
		if err != nil {
			t.Fatal(err)
		}
		re, err := metrics.RobustnessError(orig, pred)
		if err != nil {
			t.Fatal(err)
		}
		if re+0.05 < prev { // allow small non-monotonicity from sign flips
			t.Fatalf("robustness error dropped sharply with larger ε: %v → %v", prev, re)
		}
		prev = re
	}
}

func TestFGSMZeroEpsilonIsIdentity(t *testing.T) {
	m, x, labels := trainedToyModel(t, 14)
	adv, err := FGSM(m, x, labels, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(adv, x, 0) {
		t.Fatal("ε=0 must return the input unchanged")
	}
	if _, err := FGSM(m, x, labels, -0.1); err == nil {
		t.Fatal("want error for negative ε")
	}
}

func TestSubstituteLearnsTargetBehaviour(t *testing.T) {
	target, x, _ := trainedToyModel(t, 20)
	targetPred, err := target.PredictClasses(x)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := TrainSubstitute(x, targetPred, SubstituteConfig{Epochs: 60, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	subPred, err := sub.PredictClasses(x)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range subPred {
		if subPred[i] == targetPred[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(subPred)); frac < 0.9 {
		t.Fatalf("substitute agreement = %v, want ≥ 0.9", frac)
	}
}

func TestBlackBoxTransfersButWeakerThanWhiteBox(t *testing.T) {
	target, x, labels := trainedToyModel(t, 30)
	targetPred, err := target.PredictClasses(x)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := TrainSubstitute(x, targetPred, SubstituteConfig{Epochs: 60, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.3
	whiteAdv, err := FGSM(target, x, labels, eps)
	if err != nil {
		t.Fatal(err)
	}
	blackAdv, err := BlackBoxFGSM(sub, x, targetPred, eps)
	if err != nil {
		t.Fatal(err)
	}
	wPred, err := target.PredictClasses(whiteAdv)
	if err != nil {
		t.Fatal(err)
	}
	bPred, err := target.PredictClasses(blackAdv)
	if err != nil {
		t.Fatal(err)
	}
	wErr, err := metrics.RobustnessError(targetPred, wPred)
	if err != nil {
		t.Fatal(err)
	}
	bErr, err := metrics.RobustnessError(targetPred, bPred)
	if err != nil {
		t.Fatal(err)
	}
	if bErr == 0 {
		t.Fatal("black-box attack should transfer at least partially")
	}
	if bErr > wErr+0.05 {
		t.Fatalf("black-box (%v) should not beat white-box (%v)", bErr, wErr)
	}
}

func TestTrainSubstituteValidation(t *testing.T) {
	if _, err := TrainSubstitute(mat.New(2, 2), []int{0}, SubstituteConfig{}); err == nil {
		t.Fatal("want error for row/label mismatch")
	}
	if _, err := TrainSubstitute(mat.New(0, 2), nil, SubstituteConfig{}); err == nil {
		t.Fatal("want error for empty query set")
	}
}

func TestCUSUMDetectsMeanShift(t *testing.T) {
	c := NewCUSUM(0, 1)
	// In-control noise: no alarm.
	rng := rand.New(rand.NewSource(40))
	series := make([]float64, 200)
	for i := range series {
		series[i] = rng.NormFloat64()
	}
	if idx := c.DetectSeries(series); idx >= 0 {
		t.Fatalf("false alarm at %d on in-control data", idx)
	}
	// A 2σ mean shift must be caught quickly.
	for i := 100; i < 200; i++ {
		series[i] += 2
	}
	idx := c.DetectSeries(series)
	if idx < 100 || idx > 120 {
		t.Fatalf("2σ shift detected at %d, want shortly after 100", idx)
	}
}

func TestCUSUMTwoSided(t *testing.T) {
	c := NewCUSUM(0, 1)
	series := make([]float64, 50)
	for i := range series {
		series[i] = -3 // strong negative shift
	}
	if idx := c.DetectSeries(series); idx < 0 {
		t.Fatal("negative shift not detected")
	}
	pos, neg := c.sPos, c.sNeg
	if neg <= pos {
		t.Fatalf("negative statistic %v should dominate %v", neg, pos)
	}
}

func TestCUSUMZeroStdGuard(t *testing.T) {
	c := NewCUSUM(0, 0)
	if c.Observe(1) {
		t.Fatal("single unit sample should not alarm")
	}
}

func TestGaussianNoiseEvadesCUSUM(t *testing.T) {
	// The paper's premise: σ ≤ 1·std Gaussian noise slips past change
	// detection. Residual series of N(0, 0.5²) vs a unit-std CUSUM.
	rng := rand.New(rand.NewSource(41))
	orig := make([][]float64, 50)
	pert := make([][]float64, 50)
	for i := range orig {
		orig[i] = make([]float64, 30)
		pert[i] = make([]float64, 30)
		for j := range orig[i] {
			v := rng.NormFloat64() * 10
			orig[i][j] = v
			pert[i][j] = v + rng.NormFloat64()*0.5 // σ = 0.5 std (std=1 below)
		}
	}
	rate, err := EvasionRate(orig, pert, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 0.9 {
		t.Fatalf("evasion rate %v, want ≥ 0.9 for σ=0.5std noise", rate)
	}
	// An aggressive 3σ offset attack must be caught.
	for i := range pert {
		for j := range pert[i] {
			pert[i][j] = orig[i][j] + 3
		}
	}
	rate, err = EvasionRate(orig, pert, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rate > 0.1 {
		t.Fatalf("evasion rate %v for 3σ offset, want ≤ 0.1", rate)
	}
}

func TestEvasionRateValidation(t *testing.T) {
	if _, err := EvasionRate([][]float64{{1}}, nil, 1); err == nil {
		t.Fatal("want error for count mismatch")
	}
	if _, err := EvasionRate([][]float64{{1}}, [][]float64{{1, 2}}, 1); err == nil {
		t.Fatal("want error for length mismatch")
	}
	r, err := EvasionRate(nil, nil, 1)
	if err != nil || r != 0 {
		t.Fatalf("empty evasion = %v, %v", r, err)
	}
}

func TestPGDStrongerThanFGSM(t *testing.T) {
	m, x, labels := trainedToyModel(t, 60)
	orig, err := m.PredictClasses(x)
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.25
	fgsmAdv, err := FGSM(m, x, labels, eps)
	if err != nil {
		t.Fatal(err)
	}
	pgdAdv, err := PGD(m, x, labels, PGDConfig{Eps: eps, Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	flips := func(adv *mat.Matrix) float64 {
		pred, err := m.PredictClasses(adv)
		if err != nil {
			t.Fatal(err)
		}
		re, err := metrics.RobustnessError(orig, pred)
		if err != nil {
			t.Fatal(err)
		}
		return re
	}
	f, p := flips(fgsmAdv), flips(pgdAdv)
	if p+1e-9 < f {
		t.Fatalf("PGD (%v) should be at least as strong as FGSM (%v)", p, f)
	}
}

func TestPGDRespectsBudget(t *testing.T) {
	m, x, labels := trainedToyModel(t, 61)
	eps := 0.1
	adv, err := PGD(m, x, labels, PGDConfig{Eps: eps, Steps: 20, StepSize: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	diff, err := mat.SubM(adv, x)
	if err != nil {
		t.Fatal(err)
	}
	if diff.MaxAbs() > eps+1e-12 {
		t.Fatalf("PGD violated L∞ budget: %v > %v", diff.MaxAbs(), eps)
	}
}

func TestPGDZeroEpsIdentity(t *testing.T) {
	m, x, labels := trainedToyModel(t, 62)
	adv, err := PGD(m, x, labels, PGDConfig{Eps: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(adv, x, 0) {
		t.Fatal("ε=0 PGD must be identity")
	}
	if _, err := PGD(m, x, labels, PGDConfig{Eps: -1}); err == nil {
		t.Fatal("want error for negative ε")
	}
}
