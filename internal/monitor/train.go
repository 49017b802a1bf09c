package monitor

import (
	"fmt"
	"math/rand"

	"repro/internal/artifact"
	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/nn"
)

// TrainConfig configures ML monitor training. Zero values select the paper's
// setup: Adam with learning rate 0.001, sparse categorical cross-entropy
// (plus the semantic term for Custom monitors), MLP 256-128 or stacked LSTM
// 128-64 over 6 steps.
type TrainConfig struct {
	Arch Arch
	// Semantic trains the "Custom" variant with the Eq (2) loss.
	Semantic bool
	// SemanticWeight is w in Eq (2) (default 0.5).
	SemanticWeight float64
	// Epochs over the training set. The default is 15, matching the
	// cmd/apstrain default and experiments.Default() — one number
	// everywhere (the paper preset raises it via experiments.Paper()).
	Epochs int
	// BatchSize for minibatch SGD (default 256).
	BatchSize int
	// LR is the Adam learning rate (default 0.001, the paper's default).
	LR float64
	// Hidden1/Hidden2 override the architecture width (0 = paper sizes).
	Hidden1, Hidden2 int
	// AdversarialEps enables adversarial training (the defense baseline the
	// paper's §V contrasts with the semantic loss): every minibatch is
	// augmented with FGSM examples of this ε crafted against the current
	// model. Zero disables.
	AdversarialEps float64
	// Seed drives weight init and batch shuffling.
	Seed int64
	// Workers caps the data-parallel fan-out inside training: nn.Trainer
	// splits every batch into fixed row blocks run across this many
	// goroutines (clamped by the shared sweep budget). <= 0 selects all
	// cores; 1 runs fully serial. Trained weights are byte-identical at
	// every setting, so Workers is excluded from Fingerprint.
	Workers int // fp:ignore scheduling knob, trained weights are byte-identical at every worker count
}

// FormatVersion identifies the Save/Load encoding of trained monitors.
// Bump it whenever the serialization, the architectures, or the training
// procedure changes incompatibly — cached monitors from older versions
// then become unreachable and are retrained.
//
// Version 2: the block-parallel trainer (nn.Trainer) normalizes loss
// gradients per fixed 32-row block and reduces them in block order, and the
// LSTM backward now accumulates multi-step parameter gradients in place;
// both change trained weights relative to the v1 whole-batch path
// (bit-level, not statistically).
//
// Version 3: monitors are stored as an artifact section container
// (monitor meta, network meta and params, normalizer) instead of a text
// header and two JSON lines. Trained weights are those of v2, bit for bit.
const FormatVersion = 3

// Fingerprint hashes the canonicalized training configuration (after
// defaults are filled). Knobs that cannot affect the trained weights are
// normalized out — SemanticWeight only enters the loss when Semantic is
// set, so changing it must not invalidate cached non-semantic monitors,
// and Workers is excluded entirely because the trainer's fixed-block
// reduction makes weights byte-identical at every parallelism setting.
// It identifies only the recipe; artifact keys for trained monitors must
// also mix in a fingerprint of the training data.
func (c TrainConfig) Fingerprint() uint64 {
	c.fill()
	if !c.Semantic {
		c.SemanticWeight = 0
	}
	return artifact.Fingerprint("train", c.Arch, c.Semantic, c.SemanticWeight, c.Epochs,
		c.BatchSize, c.LR, c.Hidden1, c.Hidden2, c.AdversarialEps, c.Seed)
}

func (c *TrainConfig) fill() {
	if c.SemanticWeight == 0 {
		c.SemanticWeight = 0.5
	}
	if c.Epochs == 0 {
		c.Epochs = 15
	}
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	if c.LR == 0 {
		c.LR = 0.001
	}
}

// Train fits an ML monitor on the training split. The split must carry
// fitted normalizers (i.e. come from Dataset.Split).
func Train(train *dataset.Dataset, cfg TrainConfig) (*MLMonitor, error) {
	cfg.fill()
	if train.Len() == 0 {
		return nil, fmt.Errorf("monitor: empty training set")
	}
	if train.MLPNorm == nil || train.SeqNorm == nil {
		return nil, fmt.Errorf("monitor: training set has no fitted normalizers (use Dataset.Split)")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var loss nn.Loss = nn.CrossEntropy{}
	if cfg.Semantic {
		loss = nn.SemanticLoss{Weight: cfg.SemanticWeight, UnsafeClass: 1}
	}

	m := &MLMonitor{
		arch:     cfg.Arch,
		custom:   cfg.Semantic,
		window:   train.Window,
		seqFeats: dataset.SeqFeatureCount,
	}
	var err error
	switch cfg.Arch {
	case ArchMLP:
		m.norm = train.MLPNorm
		m.model, err = nn.NewMLPClassifier(rng, dataset.MLPFeatureCount, nn.MLPConfig{
			Hidden1: cfg.Hidden1, Hidden2: cfg.Hidden2, Loss: loss,
		})
	case ArchLSTM:
		m.norm = train.SeqNorm
		m.model, err = nn.NewLSTMClassifier(rng, dataset.SeqFeatureCount, nn.LSTMConfig{
			Hidden1: cfg.Hidden1, Hidden2: cfg.Hidden2, Steps: train.Window, Loss: loss,
		})
	default:
		return nil, fmt.Errorf("monitor: unknown architecture %d", int(cfg.Arch))
	}
	if err != nil {
		return nil, fmt.Errorf("monitor: build model: %w", err)
	}
	x, err := m.InputMatrix(train.Samples)
	if err != nil {
		return nil, err
	}
	if err := fitMinibatch(m.model, x, train.Labels(), train.Knowledge(), cfg, rng); err != nil {
		return nil, err
	}
	return m, nil
}

// fitMinibatch runs minibatch SGD over the training matrix: each epoch
// shuffles the row order with rng, then gathers every batch into one reused
// buffer and trains on it through nn.Trainer's block-parallel step. The
// gather runs on the calling goroutine between steps: copying at most
// BatchSize rows takes microseconds against a step's milliseconds. Batch
// contents and order are a pure function of the seed, and the trainer
// reduces gradients in fixed block order, so trained weights are
// byte-identical at every Workers setting.
func fitMinibatch(model *nn.Model, x *mat.Matrix, labels []int, knowledge []float64, cfg TrainConfig, rng *rand.Rand) error {
	n := x.Rows()
	trainer := nn.NewTrainer(model, nn.NewAdam(cfg.LR), cfg.Workers)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	maxB := min(cfg.BatchSize, n)
	buf := mat.New(maxB, x.Cols())
	bufLabels := make([]int, maxB)
	bufKnow := make([]float64, maxB)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for from := 0; from < n; from += cfg.BatchSize {
			rows := min(cfg.BatchSize, n-from)
			for r, src := range idx[from : from+rows] {
				copy(buf.Row(r), x.Row(src))
				bufLabels[r] = labels[src]
				bufKnow[r] = knowledge[src]
			}
			bx, err := buf.RowsView(0, rows)
			if err != nil {
				return err
			}
			bl, bk := bufLabels[:rows], bufKnow[:rows]
			if _, err := trainer.Step(bx, bl, bk); err != nil {
				return fmt.Errorf("monitor: train epoch %d: %w", epoch, err)
			}
			if cfg.AdversarialEps > 0 {
				// The inner step of adversarial training: attack the current
				// model state with the same loss surface being optimized.
				adv, err := attack.FGSMWithKnowledge(model, bx, bl, bk, cfg.AdversarialEps)
				if err != nil {
					return fmt.Errorf("monitor: adversarial batch epoch %d: %w", epoch, err)
				}
				if _, err := trainer.Step(adv, bl, bk); err != nil {
					return fmt.Errorf("monitor: adversarial train epoch %d: %w", epoch, err)
				}
			}
		}
	}
	return nil
}
