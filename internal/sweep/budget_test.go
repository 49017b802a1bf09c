package sweep

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBudgetAcquireRelease(t *testing.T) {
	SetBudget(3)
	defer SetBudget(0)
	if got := acquireWorkers(2); got != 2 {
		t.Fatalf("first acquire = %d, want 2", got)
	}
	if got := acquireWorkers(5); got != 1 {
		t.Fatalf("second acquire = %d, want the remaining 1", got)
	}
	if got := acquireWorkers(1); got != 0 {
		t.Fatalf("drained pool granted %d", got)
	}
	releaseWorkers(3)
	if got := acquireWorkers(4); got != 3 {
		t.Fatalf("after release acquire = %d, want 3", got)
	}
	releaseWorkers(3)
	if acquireWorkers(0) != 0 || acquireWorkers(-1) != 0 {
		t.Fatal("non-positive requests must grant 0")
	}
	if BudgetCap() != 3 {
		t.Fatalf("BudgetCap() = %d, want 3", BudgetCap())
	}
	SetBudget(0)
	if BudgetCap() < 1 {
		t.Fatalf("default cap = %d, want >= 1", BudgetCap())
	}
}

// TestMapRespectsBudget checks that nested Maps cannot multiply past the
// shared cap: with a budget of 2, an outer parallel Map whose cells each
// run an inner parallel Map must never have more than ~3 cells in flight
// (the calling goroutine plus two granted workers, across both layers).
func TestMapRespectsBudget(t *testing.T) {
	SetBudget(2)
	defer SetBudget(0)

	var inFlight, peak atomic.Int32
	work := func() {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
	}
	_, err := Map(8, 8, func(i int) (int, error) {
		inner, err := Map(8, 8, func(j int) (int, error) {
			work()
			return j, nil
		})
		if err != nil {
			return 0, err
		}
		return len(inner), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Budget 2 means at most 2 extra workers exist beyond the caller, so at
	// most 3 goroutines can ever be inside work() simultaneously.
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d with budget 2, want <= 3", p)
	}
}

// TestMapResultsIdenticalUnderAnyBudget pins the determinism contract: the
// budget changes scheduling, never results.
func TestMapResultsIdenticalUnderAnyBudget(t *testing.T) {
	defer SetBudget(0)
	want := make([]int, 100)
	for i := range want {
		want[i] = i * i
	}
	for _, b := range []int{1, 2, 4, 16} {
		SetBudget(b)
		got, err := Map(8, len(want), func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("budget %d: result[%d] = %d, want %d", b, i, got[i], want[i])
			}
		}
	}
}

// TestMapReleasesTokens checks Map returns its grant: a drained budget
// would otherwise force every later Map to run serially.
func TestMapReleasesTokens(t *testing.T) {
	SetBudget(4)
	defer SetBudget(0)
	for round := 0; round < 10; round++ {
		if _, err := Map(4, 16, func(i int) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := acquireWorkers(4); got != 4 {
		t.Fatalf("after 10 Maps only %d tokens free, want 4 (leak)", got)
	}
	releaseWorkers(4)
}

// TestConcurrentAcquireNeverExceedsCap hammers the pool from many
// goroutines and checks the outstanding count never exceeds the cap.
func TestConcurrentAcquireNeverExceedsCap(t *testing.T) {
	const cap = 5
	SetBudget(cap)
	defer SetBudget(0)
	var out, peak atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := acquireWorkers(3)
				cur := out.Add(int32(n))
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				out.Add(int32(-n))
				releaseWorkers(n)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > cap {
		t.Fatalf("outstanding tokens peaked at %d, cap is %d", p, cap)
	}
}

// TestRangesCoversEachIndexOnce: the ranges are contiguous, ascend with w,
// and cover [0, n) exactly once, whatever the requested width and also
// when n is smaller than it.
func TestRangesCoversEachIndexOnce(t *testing.T) {
	SetBudget(8)
	defer SetBudget(0)
	for want := 1; want <= 8; want++ {
		for _, n := range []int{1, 2, 3, 7, 8, 13, 100} {
			var mu sync.Mutex
			bounds := map[int][2]int{}
			hits := make([]atomic.Int32, n)
			Ranges(n, want, func(w, lo, hi int) {
				mu.Lock()
				if _, dup := bounds[w]; dup {
					t.Errorf("want=%d n=%d: worker %d ran twice", want, n, w)
				}
				bounds[w] = [2]int{lo, hi}
				mu.Unlock()
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			if len(bounds) > min(want, n) {
				t.Fatalf("want=%d n=%d: %d ranges", want, n, len(bounds))
			}
			next := 0
			for w := 0; w < len(bounds); w++ {
				b, ok := bounds[w]
				if !ok || b[0] != next || b[1] < b[0] {
					t.Fatalf("want=%d n=%d: range %d = %v (present %v), want it to start at %d", want, n, w, b, ok, next)
				}
				next = b[1]
			}
			if next != n {
				t.Fatalf("want=%d n=%d: ranges end at %d", want, n, next)
			}
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("want=%d n=%d: index %d covered %d times", want, n, i, hits[i].Load())
				}
			}
		}
	}
	Ranges(0, 4, func(int, int, int) { t.Fatal("body ran on an empty range") })
}

// TestRangesRunsRangeZeroOnCaller: range 0 runs on the calling goroutine
// (its stack holds this test's own frame), every other range on a
// goroutine that Ranges launched.
func TestRangesRunsRangeZeroOnCaller(t *testing.T) {
	SetBudget(4)
	defer SetBudget(0)
	stacks := make([]string, 4)
	Ranges(4, 4, func(w, _, _ int) {
		buf := make([]byte, 16<<10)
		stacks[w] = string(buf[:runtime.Stack(buf, false)])
	})
	const caller, launched = "sweep.TestRangesRunsRangeZeroOnCaller(", "created by repro/internal/sweep.Ranges"
	if !strings.Contains(stacks[0], caller) || strings.Contains(stacks[0], launched) {
		t.Fatalf("range 0 did not run on the caller:\n%s", stacks[0])
	}
	for w := 1; w < len(stacks); w++ {
		if !strings.Contains(stacks[w], launched) || strings.Contains(stacks[w], caller) {
			t.Fatalf("range %d did not run on a launched goroutine with 3 tokens free:\n%s", w, stacks[w])
		}
	}
}

// TestRangesFreesBudget: Ranges returns every token it took, and a budget
// drained on entry leaves it running serially and the pool as it was.
func TestRangesFreesBudget(t *testing.T) {
	SetBudget(4)
	defer SetBudget(0)
	Ranges(16, 8, func(int, int, int) {})
	if got := acquireWorkers(4); got != 4 {
		t.Fatalf("after Ranges only %d of 4 tokens free", got)
	}
	// The pool is drained now: Ranges must run all of [0, n) as range 0.
	calls := 0
	Ranges(16, 8, func(w, lo, hi int) {
		calls++
		if w != 0 || lo != 0 || hi != 16 {
			t.Errorf("drained budget: range %d = [%d, %d), want 0 = [0, 16)", w, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("drained budget: %d ranges, want 1", calls)
	}
	releaseWorkers(4)
	if got := acquireWorkers(4); got != 4 {
		t.Fatalf("after a drained Ranges only %d of 4 tokens free", got)
	}
	releaseWorkers(4)
}
