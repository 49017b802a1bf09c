package attack

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/nn"
)

// PGDConfig sizes a projected-gradient-descent attack (iterative FGSM with
// an L∞ projection — Madry et al.), the stronger white-box attack the
// paper's conclusion calls for in "a more comprehensive investigation of
// robustness testing".
type PGDConfig struct {
	// Eps is the L∞ budget around the original input.
	Eps float64
	// StepSize is the per-iteration step (default Eps/4).
	StepSize float64
	// Steps is the number of iterations (default 10).
	Steps int
}

func (c *PGDConfig) fill() {
	if c.Steps == 0 {
		c.Steps = 10
	}
	if c.StepSize == 0 {
		c.StepSize = c.Eps / 4
	}
}

// PGD crafts adversarial examples by iterating FGSM steps and projecting
// back into the ε-ball around the original inputs after each step. The
// gradient uses the model's own training loss with no semantic knowledge
// indicators; use PGDWithKnowledge to attack semantic ("Custom") monitors
// on the Eq (2) surface they were trained on.
//
//apslint:allow reach BenchmarkAblationPGDvsFGSM in bench_test.go compares it against FGSM
func PGD(model *nn.Model, x *mat.Matrix, labels []int, cfg PGDConfig) (*mat.Matrix, error) {
	return PGDWithKnowledge(model, x, labels, nil, cfg)
}

// PGDWithKnowledge is PGD with the semantic-loss knowledge indicators
// threaded into every iteration's gradient, mirroring FGSMWithKnowledge:
// without it, PGD against a Custom monitor silently degrades to plain
// cross-entropy gradients (SemanticLoss skips its term when knowledge is
// nil) and probes the wrong loss surface. With knowledge == nil it is
// exactly PGD.
func PGDWithKnowledge(model *nn.Model, x *mat.Matrix, labels []int, knowledge []float64, cfg PGDConfig) (*mat.Matrix, error) {
	if cfg.Eps < 0 {
		return nil, fmt.Errorf("attack: negative epsilon %v", cfg.Eps)
	}
	cfg.fill()
	adv := x.Clone()
	if cfg.Eps == 0 {
		return adv, nil
	}
	for it := 0; it < cfg.Steps; it++ {
		grad, err := model.InputGradient(adv, labels, knowledge)
		if err != nil {
			return nil, fmt.Errorf("attack: pgd iteration %d: %w", it, err)
		}
		signStep(adv, grad, cfg.StepSize)
		// Project back into the ε-ball.
		for i := 0; i < adv.Rows(); i++ {
			row := adv.Row(i)
			orig := x.Row(i)
			for j := range row {
				if d := row[j] - orig[j]; d > cfg.Eps {
					row[j] = orig[j] + cfg.Eps
				} else if d < -cfg.Eps {
					row[j] = orig[j] - cfg.Eps
				}
			}
		}
	}
	return adv, nil
}
