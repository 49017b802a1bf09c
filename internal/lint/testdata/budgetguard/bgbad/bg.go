// Package bgbad exercises budgetguard. The tests load it under spoofed
// budget-governed import paths (repro/internal/mat, repro/internal/nn),
// where every launch is flagged, and under repro/internal/sweep, the
// budget pool, where none is.
package bgbad

import "sync"

func rawFanOut(n int) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() { // want `raw goroutine launch in budget-governed package`
			defer wg.Done()
		}()
	}
	wg.Wait()
}

func namedLaunch() {
	go work(1) // want `raw goroutine launch in budget-governed package`
}

func work(int) {}
