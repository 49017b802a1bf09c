// Package attack implements the adversarial input perturbations of §III of
// the paper (the accidental Gaussian noise, applied to raw windows, lives in
// dataset.GaussianNoisySamples):
//
//   - white-box FGSM: ∆x = ε·sign(∇_x J(x, y)) on the full multivariate
//     input (sensor values and control commands), Eqs (3)-(4);
//   - black-box FGSM: white-box FGSM against a substitute model trained from
//     the target monitor's query responses, transferred to the target.
//
// All perturbations operate on the monitors' normalized feature space, where
// each column has unit variance on the training set, so ε budgets
// correspond directly to the paper's "fractions of a standard deviation".
package attack

import (
	"fmt"
	"math/rand"

	"repro/internal/artifact"
	"repro/internal/mat"
	"repro/internal/nn"
)

// FGSM crafts white-box adversarial examples against model: x + ε·sign(∇_x J)
// using the true labels (Eq 3-4). The perturbation touches every input
// column — both sensor values and control commands, as in the paper.
func FGSM(model *nn.Model, x *mat.Matrix, labels []int, eps float64) (*mat.Matrix, error) {
	return FGSMWithKnowledge(model, x, labels, nil, eps)
}

// FGSMWithKnowledge is FGSM with the semantic-loss knowledge indicators
// threaded into the gradient. Adversarial training of the Custom monitors
// uses it so the inner attack targets the same loss surface being
// optimized; with knowledge == nil it is exactly FGSM.
func FGSMWithKnowledge(model *nn.Model, x *mat.Matrix, labels []int, knowledge []float64, eps float64) (*mat.Matrix, error) {
	if eps < 0 {
		return nil, fmt.Errorf("attack: negative epsilon %v", eps)
	}
	grad, err := model.InputGradient(x, labels, knowledge)
	if err != nil {
		return nil, fmt.Errorf("attack: fgsm gradient: %w", err)
	}
	return FGSMStep(x, grad, eps)
}

// FGSMStep returns x + ε·sign(grad) as a fresh matrix, leaving x and grad
// untouched. sign(∇_x J) does not depend on ε, so a sweep over budgets
// computes the input gradient once and calls FGSMStep per level; FGSM is
// exactly InputGradient followed by FGSMStep.
func FGSMStep(x, grad *mat.Matrix, eps float64) (*mat.Matrix, error) {
	if eps < 0 {
		return nil, fmt.Errorf("attack: negative epsilon %v", eps)
	}
	if grad.Rows() != x.Rows() || grad.Cols() != x.Cols() {
		return nil, fmt.Errorf("attack: gradient %dx%d for input %dx%d", grad.Rows(), grad.Cols(), x.Rows(), x.Cols())
	}
	out := x.Clone()
	signStep(out, grad, eps)
	return out, nil
}

// signStep applies the FGSM update x ← x + ε·sign(g) in place — the single
// home of the sign-step rule shared by FGSMStep and the PGD inner loop.
// Zero-gradient entries are left untouched.
func signStep(x, grad *mat.Matrix, eps float64) {
	for i := 0; i < x.Rows(); i++ {
		row := x.Row(i)
		grow := grad.Row(i)
		for j := range row {
			switch {
			case grow[j] > 0:
				row[j] += eps
			case grow[j] < 0:
				row[j] -= eps
			}
		}
	}
}

// SubstituteConfig sizes black-box substitute training.
type SubstituteConfig struct {
	// Epochs over the query set (default 30).
	Epochs int
	// BatchSize for minibatch training (default 256).
	BatchSize int
	// LR is the Adam learning rate (default 0.001).
	LR float64
	// Seed drives substitute weight init and shuffling.
	Seed int64
}

// SubstituteFormatVersion identifies how a cached substitute was produced
// and stored: its architecture (nn.NewSubstituteMLP), the TrainSubstitute
// algorithm and the nn.Model.Save encoding. Bump it whenever any of them
// changes, so stored substitutes the old code wrote become unreachable.
//
// Version 2: substitutes are stored as nn.Model.Save's section container
// instead of JSON; the weights are those of v1, bit for bit.
const SubstituteFormatVersion = 2

// Fingerprint hashes every field that determines the trained substitute,
// after defaults are filled, so an explicit default and a zero value key
// the same entry.
func (c SubstituteConfig) Fingerprint() uint64 {
	c.fill()
	return artifact.Fingerprint("substitute", c.Epochs, c.BatchSize, c.LR, c.Seed)
}

func (c *SubstituteConfig) fill() {
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	if c.LR == 0 {
		c.LR = 0.001
	}
}

// TrainSubstitute fits the attacker's substitute model (a two-layer 128-64
// MLP, §III) on the target's query responses: the attacker sends the inputs
// x and observes the predicted classes.
func TrainSubstitute(queryX *mat.Matrix, targetPred []int, cfg SubstituteConfig) (*nn.Model, error) {
	cfg.fill()
	if queryX.Rows() != len(targetPred) {
		return nil, fmt.Errorf("attack: %d query rows but %d target predictions", queryX.Rows(), len(targetPred))
	}
	if queryX.Rows() == 0 {
		return nil, fmt.Errorf("attack: empty query set")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sub, err := nn.NewSubstituteMLP(rng, queryX.Cols(), 2)
	if err != nil {
		return nil, fmt.Errorf("attack: build substitute: %w", err)
	}
	opt := nn.NewAdam(cfg.LR)
	n := queryX.Rows()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for from := 0; from < n; from += cfg.BatchSize {
			to := from + cfg.BatchSize
			if to > n {
				to = n
			}
			bx := mat.New(to-from, queryX.Cols())
			bl := make([]int, to-from)
			for bi := range bl {
				src := idx[from+bi]
				copy(bx.Row(bi), queryX.Row(src))
				bl[bi] = targetPred[src]
			}
			if _, err := sub.TrainBatch(bx, bl, nil, opt); err != nil {
				return nil, fmt.Errorf("attack: substitute epoch %d: %w", epoch, err)
			}
		}
	}
	return sub, nil
}

// BlackBoxFGSM crafts transfer attacks: FGSM perturbations generated on the
// substitute model, to be applied against the (unseen) target. A sweep over
// budgets against one substitute takes the substitute's InputGradient once
// and applies FGSMStep per ε instead.
func BlackBoxFGSM(substitute *nn.Model, x *mat.Matrix, labels []int, eps float64) (*mat.Matrix, error) {
	return FGSM(substitute, x, labels, eps)
}
