package mat

import "repro/internal/sweep"

// SetParallelism forwards to sweep.SetBudget: the blocked matrix products
// fan out within the one shared worker budget, so there is no separate
// matrix knob.
//
// Deprecated: call sweep.SetBudget. Kept only because the end-to-end
// benchmark compiles against it; delete with the next change that may edit
// the benchmark.
func SetParallelism(n int) { sweep.SetBudget(n) }

// Parallelism forwards to sweep.BudgetCap.
//
// Deprecated: call sweep.BudgetCap; see SetParallelism.
func Parallelism() int { return sweep.BudgetCap() }

// parallelFlopCutoff is the minimum multiply-accumulate count at which the
// goroutine fan-out pays for itself; below it the spawn/join overhead
// dominates. 1<<16 ≈ a 64×64 × 64×16 product.
const parallelFlopCutoff = 1 << 16

// planWorkers returns how many workers a product with the given output rows
// and multiply-accumulate count should try to fan out over; 1 means run
// serial. The count starts from the shared sweep budget and is clamped by
// flops so every spawned worker owns at least one cutoff's worth of work —
// a product barely over the line runs serially instead of waking workers
// for sub-microsecond row blocks.
func planWorkers(rows, flops int) int {
	if flops < parallelFlopCutoff {
		return 1
	}
	workers := sweep.BudgetCap()
	if limit := flops / parallelFlopCutoff; workers > limit {
		workers = limit
	}
	if workers > rows {
		workers = rows
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// The products a row kernel computes, indexing a kernelSet.
const (
	productAB  = iota // out = a × b
	productABt        // out = a × bᵀ
)

// kernelSet holds one element type's row kernels, indexed by product. A
// row kernel computes rows [lo, hi) of a product into out. The float64
// a × b kernel adds into out (its zero-skip needs a cleared base), so
// clearAB tells MatMulInto to zero a reused destination first; every other
// kernel overwrites its rows.
type kernelSet[T Float] struct {
	rows    [2]func(out, a, b *Dense[T], lo, hi int)
	clearAB bool
}

var (
	kernels64 = &kernelSet[float64]{
		rows:    [2]func(out, a, b *Matrix, lo, hi int){productAB: matMulRows64, productABt: matMulTRows64},
		clearAB: true,
	}
	kernels32 = &kernelSet[float32]{
		rows: [2]func(out, a, b *Dense[float32], lo, hi int){productAB: matMulRows32, productABt: matMulTRows32},
	}
)

// kernelsOf returns T's kernel set: the float64 training kernels (4-wide,
// zero-skip) or the float32 inference kernels (8-wide, dense).
func kernelsOf[T Float]() *kernelSet[T] {
	if ks, ok := any(kernels64).(*kernelSet[T]); ok {
		return ks
	}
	return any(kernels32).(*kernelSet[T])
}

// matMulDispatch computes the product named by op into out. A product
// under planWorkers' cutoff (or with a budget of 1) calls its kernel inline,
// with no closure, so that hot path allocates nothing; a larger one splits
// its rows over sweep.Ranges, which clamps the fan-out to the shared budget
// (when concurrent sweep cells hold every token it runs serially on the
// calling goroutine). Every row is computed with the same arithmetic order
// regardless of blocking, so results are byte-identical at any grant.
func matMulDispatch[T Float](out, a, b *Dense[T], op int) {
	kernel := kernelsOf[T]().rows[op]
	rows := out.rows
	if workers := planWorkers(rows, rows*a.cols*out.cols); workers > 1 {
		sweep.Ranges(rows, workers, func(_, lo, hi int) { kernel(out, a, b, lo, hi) })
		return
	}
	kernel(out, a, b, 0, rows)
}
