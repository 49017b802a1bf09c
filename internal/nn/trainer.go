package nn

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/mat"
	"repro/internal/sweep"
)

// trainBlockRows is the fixed row-block size of the data-parallel trainer.
// It is a constant — NOT a function of the worker count — which is what
// makes trained weights byte-identical at every parallelism setting: the
// batch is always cut into the same blocks, each block's forward/backward
// is computed with identical arithmetic regardless of which shard runs it,
// and the per-block gradients are reduced in ascending block order on the
// coordinating goroutine.
const trainBlockRows = 32

// Trainer performs deterministic data-parallel optimization steps on a
// model: the minibatch is split into fixed 32-row blocks, per-worker shard
// replicas (sharing the model's weights, with private caches and gradient
// buffers) run forward/backward over contiguous block ranges concurrently,
// and the per-block gradients are summed in block order before a single
// optimizer step on the canonical parameters.
//
// A Trainer is not safe for concurrent use; it owns the model during Step.
type Trainer struct {
	model   *Model
	opt     Optimizer
	params  []*Param
	workers int

	shards []trainShard
	blocks []*blockGrads
	errs   []error
}

type trainShard struct {
	model  *Model
	params []*Param
}

// blockGrads holds one block's parameter gradients (same shapes as the
// model's parameters) and its summed per-sample loss.
type blockGrads struct {
	g    []*mat.Matrix
	loss float64
}

// NewTrainer builds a data-parallel trainer for model. workers caps the
// shard fan-out: <= 0 selects runtime.GOMAXPROCS(0), 1 runs every block on
// the calling goroutine. Step fans its block ranges out through
// sweep.Ranges, so the shared worker budget clamps the shards actually run
// and nested parallel layers (sweep cells training monitors, matmul row
// blocks) never multiply past the process-wide cap. Trained weights are
// byte-identical at every setting.
func NewTrainer(model *Model, opt Optimizer, workers int) *Trainer {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Trainer{model: model, opt: opt, params: model.Params(), workers: workers}
}

// Step performs one optimization step on a batch and returns the mean batch
// loss. knowledge may be nil for plain losses.
func (t *Trainer) Step(x *mat.Matrix, labels []int, knowledge []float64) (float64, error) {
	n := x.Rows()
	if n == 0 {
		return 0, errors.New("nn: trainer: empty batch")
	}
	if len(labels) != n {
		return 0, fmt.Errorf("nn: trainer: %d labels for %d rows", len(labels), n)
	}
	if knowledge != nil && len(knowledge) != n {
		return 0, fmt.Errorf("nn: trainer: %d knowledge indicators for %d rows", len(knowledge), n)
	}
	nb := (n + trainBlockRows - 1) / trainBlockRows
	for len(t.blocks) < nb {
		bg := &blockGrads{g: make([]*mat.Matrix, len(t.params))}
		for j, p := range t.params {
			bg.g[j] = mat.New(p.W.Rows(), p.W.Cols())
		}
		t.blocks = append(t.blocks, bg)
	}
	if len(t.errs) < nb {
		t.errs = make([]error, nb)
	}
	for b := 0; b < nb; b++ {
		t.errs[b] = nil
	}

	workers := min(t.workers, nb)
	for len(t.shards) < workers {
		sh, err := t.model.Replicate()
		if err != nil {
			return 0, fmt.Errorf("nn: trainer: replicate shard: %w", err)
		}
		t.shards = append(t.shards, trainShard{model: sh, params: sh.Params()})
	}
	sweep.Ranges(nb, workers, func(w, blo, bhi int) {
		for b := blo; b < bhi; b++ {
			if err := t.runBlock(t.shards[w], b, x, labels, knowledge, n); err != nil {
				t.errs[b] = err
				return
			}
		}
	})
	for b := 0; b < nb; b++ {
		if t.errs[b] != nil {
			// Lowest failing block, independent of scheduling.
			return 0, t.errs[b]
		}
	}

	// Fixed-order reduction: block 0, block 1, … regardless of which shard
	// produced which block or when it finished.
	var lossSum float64
	for b := 0; b < nb; b++ {
		lossSum += t.blocks[b].loss
	}
	for j, p := range t.params {
		if err := p.G.CopyFrom(t.blocks[0].g[j]); err != nil {
			return 0, fmt.Errorf("nn: trainer: reduce %q: %w", p.Name, err)
		}
		for b := 1; b < nb; b++ {
			if err := p.G.AddInPlace(t.blocks[b].g[j]); err != nil {
				return 0, fmt.Errorf("nn: trainer: reduce %q: %w", p.Name, err)
			}
		}
	}
	if err := t.opt.Step(t.params); err != nil {
		return 0, err
	}
	return lossSum / float64(n), nil
}

// runBlock computes block b's forward/backward on shard sh, leaving the
// block's parameter gradients (scaled to the full-batch mean) in its
// buffers.
func (t *Trainer) runBlock(sh trainShard, b int, x *mat.Matrix, labels []int, knowledge []float64, n int) error {
	lo := b * trainBlockRows
	hi := lo + trainBlockRows
	if hi > n {
		hi = n
	}
	bx, err := x.RowsView(lo, hi)
	if err != nil {
		return err
	}
	bg := t.blocks[b]
	// Point the shard's gradient accumulators at this block's buffers so the
	// backward pass writes them directly — no copy.
	for j, p := range sh.params {
		p.G = bg.g[j]
		p.G.Zero()
	}
	logits, err := sh.model.Forward(bx)
	if err != nil {
		return err
	}
	var know []float64
	if knowledge != nil {
		know = knowledge[lo:hi]
	}
	blockLoss, gradLogits, err := sh.model.loss.Compute(logits, labels[lo:hi], know)
	if err != nil {
		return err
	}
	bs := hi - lo
	if bs != n {
		// The loss scales its gradient by 1/blockRows; rescale to the
		// full-batch mean. Serial and parallel paths both take this exact
		// route, so the extra rounding cannot break determinism.
		gradLogits.Scale(float64(bs) / float64(n))
	}
	if _, err := sh.model.backward(gradLogits, false, true); err != nil {
		return err
	}
	bg.loss = blockLoss * float64(bs)
	return nil
}
