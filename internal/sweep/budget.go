package sweep

import (
	"runtime"
	"sync"
)

// The shared worker budget is a process-wide token pool that caps the
// TOTAL number of extra worker goroutines across nested parallel layers —
// grid sweeps (Map), the trainer's block shards and the blocked matrix
// products inside their cells. Without it the layers multiply: P
// concurrent sweep cells each fanning matrix products out P ways spawn up
// to P² goroutines. Every layer fans out through Ranges, the pool's only
// holder: it asks for tokens before spawning and degrades to fewer workers
// (or fully serial execution) when the pool is drained, so a machine runs
// at most ~budget workers no matter how the layers nest. This matters
// most on warm-cache runs, which skip training and jump straight to the
// inference fan-out where both layers are active at once.
//
// Acquisition is non-blocking — a layer that gets no tokens runs inline
// on its calling goroutine — so nested acquires can never deadlock, and
// results remain byte-identical at every budget (each unit of work is
// computed identically regardless of which goroutine runs it).
var budget struct {
	mu  sync.Mutex
	cap int // 0 selects runtime.GOMAXPROCS(0)
	out int // tokens currently held
}

// SetBudget sets the shared worker budget. n <= 0 restores the default
// (runtime.GOMAXPROCS(0)). Lowering the budget below the tokens currently
// held only affects future acquisitions.
func SetBudget(n int) {
	if n < 0 {
		n = 0
	}
	budget.mu.Lock()
	budget.cap = n
	budget.mu.Unlock()
}

// BudgetCap returns the resolved budget capacity.
func BudgetCap() int {
	budget.mu.Lock()
	defer budget.mu.Unlock()
	return budgetCapLocked()
}

func budgetCapLocked() int {
	if budget.cap > 0 {
		return budget.cap
	}
	return runtime.GOMAXPROCS(0)
}

// acquireWorkers requests up to n extra-worker tokens and returns how many
// were granted (possibly 0). It never blocks. The caller must pass the
// grant to releaseWorkers when its workers exit.
func acquireWorkers(n int) int {
	if n <= 0 {
		return 0
	}
	budget.mu.Lock()
	defer budget.mu.Unlock()
	free := budgetCapLocked() - budget.out
	if free <= 0 {
		return 0
	}
	if n > free {
		n = free
	}
	budget.out += n
	return n
}

// releaseWorkers returns tokens granted by acquireWorkers to the pool.
func releaseWorkers(n int) {
	if n <= 0 {
		return
	}
	budget.mu.Lock()
	budget.out -= n
	if budget.out < 0 {
		budget.out = 0
	}
	budget.mu.Unlock()
}

// Ranges splits [0, n) into contiguous ranges, one per worker, and runs
// body(w, lo, hi) on each concurrently: range w is [n·w/workers,
// n·(w+1)/workers), and range 0 runs on the calling goroutine. want caps
// the worker count (<= 0 selects runtime.GOMAXPROCS(0)); the count is
// further clamped to n and to 1 plus the budget tokens granted, which
// Ranges holds until every range has returned. body must only write state
// owned by its range or by worker w. It is the one goroutine launch of the
// determinism-critical packages: every fan-out goes through it, so the
// budget bounds them all.
func Ranges(n, want int, body func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if want <= 0 {
		want = runtime.GOMAXPROCS(0)
	}
	workers := 1 + acquireWorkers(min(want, n)-1)
	if workers == 1 {
		body(0, 0, n)
		return
	}
	defer releaseWorkers(workers - 1)
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			body(w, n*w/workers, n*(w+1)/workers)
		}(w)
	}
	body(0, 0, n/workers)
	wg.Wait()
}
