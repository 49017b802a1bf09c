package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// echoClassify returns each row's first feature as its class (truncated) and
// confidence, making demux routing checkable per row.
func echoClassify(rows [][]float64, classes []int, conf []float64) error {
	for i, r := range rows {
		classes[i] = int(r[0])
		conf[i] = r[0] / 1000
	}
	return nil
}

func rowsOf(vals ...float64) [][]float64 {
	out := make([][]float64, len(vals))
	for i, v := range vals {
		out[i] = []float64{v}
	}
	return out
}

// gate is a ClassifyFunc that records every flush's size and holds the
// first flush until release is closed, so a test can queue blocks behind a
// busy dispatcher in a fixed order with no timing assumptions.
type gate struct {
	entered chan struct{} // closed once the first flush is running
	release chan struct{} // closed by the test to let it finish
	mu      sync.Mutex
	sizes   []int
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) classify(rows [][]float64, classes []int, conf []float64) error {
	g.mu.Lock()
	first := len(g.sizes) == 0
	g.sizes = append(g.sizes, len(rows))
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.release
	}
	return echoClassify(rows, classes, conf)
}

func (g *gate) flushSizes() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.sizes...)
}

// submit enqueues a block without waiting for its verdicts, so the test
// goroutine alone fixes the arrival order; await collects them.
func submit(t *testing.T, b *Batcher, vals ...float64) *request {
	t.Helper()
	req, err := b.newRequest(rowsOf(vals...), make([]int, len(vals)), make([]float64, len(vals)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.tryEnqueue(req); err != nil {
		t.Fatal(err)
	}
	return req
}

// hold submits one row and returns once the dispatcher is busy with it.
func hold(t *testing.T, b *Batcher, g *gate) *request {
	t.Helper()
	req := submit(t, b, 1000)
	<-g.entered
	return req
}

// await waits for a submitted block and checks that every row got its own
// verdict back.
func await(t *testing.T, req *request) {
	t.Helper()
	if err := <-req.done; err != nil {
		t.Fatal(err)
	}
	for i, r := range req.rows {
		if req.classes[i] != int(r[0]) || req.conf[i] != r[0]/1000 {
			t.Fatalf("row %v routed (%d, %v)", r[0], req.classes[i], req.conf[i])
		}
	}
}

func queued(b *Batcher) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rows
}

func TestBatcherSizeFlush(t *testing.T) {
	g := newGate()
	close(g.release)
	b := NewBatcher(BatcherConfig{MaxBatch: 8}, g.classify)
	defer b.Close()
	// One 16-row block reaches an idle dispatcher whole, so it leaves as
	// two size flushes of exactly MaxBatch.
	rows := rowsOf(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
	classes := make([]int, 16)
	conf := make([]float64, 16)
	if err := b.Classify(rows, classes, conf); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if classes[i] != i {
			t.Fatalf("row %d routed class %d", i, classes[i])
		}
	}
	if sizes := g.flushSizes(); !reflect.DeepEqual(sizes, []int{8, 8}) {
		t.Fatalf("flush sizes = %v, want [8 8]", sizes)
	}
	st := b.Stats()
	if st.SizeFlushes != 2 || st.DeadlineFlushes != 0 || st.FusedRows != 16 {
		t.Fatalf("stats = %+v, want 2 size flushes over 16 rows", st)
	}
}

// TestBatcherIdlePartialFlush: an idle dispatcher does not hold a partial
// block for batch-mates; 3 rows leave at once as one partial flush.
func TestBatcherIdlePartialFlush(t *testing.T) {
	g := newGate()
	close(g.release)
	b := NewBatcher(BatcherConfig{MaxBatch: 32}, g.classify)
	defer b.Close()
	classes := make([]int, 3)
	conf := make([]float64, 3)
	if err := b.Classify(rowsOf(7, 8, 9), classes, conf); err != nil {
		t.Fatal(err)
	}
	if classes[0] != 7 || classes[2] != 9 {
		t.Fatalf("classes = %v", classes)
	}
	if sizes := g.flushSizes(); !reflect.DeepEqual(sizes, []int{3}) {
		t.Fatalf("flush sizes = %v, want [3]", sizes)
	}
	st := b.Stats()
	if st.DeadlineFlushes != 1 || st.SizeFlushes != 0 || st.DrainFlushes != 0 {
		t.Fatalf("stats = %+v, want exactly one partial flush", st)
	}
	if got := st.Occupancy(); got != 3 {
		t.Fatalf("occupancy = %v, want 3", got)
	}
}

// TestBatcherFusesBehindHeldFlush pins the work-conserving rule: blocks that
// arrive while a flush runs wait for it alone, then leave together in
// arrival order, MaxBatch rows at a time, splitting a block where needed.
func TestBatcherFusesBehindHeldFlush(t *testing.T) {
	g := newGate()
	b := NewBatcher(BatcherConfig{MaxBatch: 4}, g.classify)
	defer b.Close()
	held := hold(t, b, g)
	blocks := []*request{
		submit(t, b, 1, 2, 3),
		submit(t, b, 4, 5),
		submit(t, b, 6, 7, 8, 9),
	}
	if n := queued(b); n != 9 {
		t.Fatalf("%d rows queued behind the held flush, want 9", n)
	}
	close(g.release)
	await(t, held)
	for _, req := range blocks {
		await(t, req)
	}
	// [1] is the held row; then [1 2 3 4], [5 6 7 8] and the tail [9].
	if sizes := g.flushSizes(); !reflect.DeepEqual(sizes, []int{1, 4, 4, 1}) {
		t.Fatalf("flush sizes = %v, want [1 4 4 1]", sizes)
	}
	st := b.Stats()
	if st.Flushes != 4 || st.SizeFlushes != 2 || st.DeadlineFlushes != 2 || st.FusedRows != 10 {
		t.Fatalf("stats = %+v, want 2 size and 2 partial flushes over 10 rows", st)
	}
}

// TestBatcherDemuxConcurrent hammers the dispatcher from many goroutines
// (run under -race) and checks every verdict lands in its own caller's
// slices.
func TestBatcherDemuxConcurrent(t *testing.T) {
	b := NewBatcher(BatcherConfig{MaxBatch: 16}, echoClassify)
	defer b.Close()
	const (
		goroutines = 24
		blocks     = 12
		blockRows  = 5
	)
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			classes := make([]int, blockRows)
			conf := make([]float64, blockRows)
			for blk := 0; blk < blocks; blk++ {
				vals := make([]float64, blockRows)
				for i := range vals {
					vals[i] = float64(g*10000 + blk*100 + i)
				}
				if err := b.ClassifyWait(context.Background(), rowsOf(vals...), classes, conf); err != nil {
					errCh <- err
					return
				}
				for i := range vals {
					if classes[i] != int(vals[i]) || conf[i] != vals[i]/1000 {
						errCh <- fmt.Errorf("goroutine %d block %d row %d: got (%d, %v)", g, blk, i, classes[i], conf[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	st := b.Stats()
	if st.FusedRows != goroutines*blocks*blockRows {
		t.Fatalf("fused %d rows, want %d", st.FusedRows, goroutines*blocks*blockRows)
	}
	if st.Flushes >= st.FusedRows {
		t.Fatalf("no fusion happened: %d flushes for %d rows", st.Flushes, st.FusedRows)
	}
}

// TestBatcherDrainOnClose pins the graceful-shutdown contract: rows queued
// behind a running flush when Close is called are still classified and
// delivered by Close's drain.
func TestBatcherDrainOnClose(t *testing.T) {
	g := newGate()
	b := NewBatcher(BatcherConfig{MaxBatch: 8}, g.classify)
	held := hold(t, b, g)
	var blocks []*request
	for i := 0; i < 6; i++ {
		blocks = append(blocks, submit(t, b, float64(2*i), float64(2*i+1)))
	}
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	<-b.closedCh // Close has marked the batcher closed; the flush still runs
	close(g.release)
	<-closed
	await(t, held)
	for _, req := range blocks {
		await(t, req)
	}
	if sizes := g.flushSizes(); !reflect.DeepEqual(sizes, []int{1, 8, 4}) {
		t.Fatalf("flush sizes = %v, want [1 8 4]", sizes)
	}
	st := b.Stats()
	if st.DrainFlushes != 1 || st.SizeFlushes != 1 || st.DeadlineFlushes != 1 {
		t.Fatalf("stats = %+v, want the held partial flush, then a size and a drain flush", st)
	}
	if err := b.Classify(rowsOf(1), make([]int, 1), make([]float64, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Classify after Close = %v, want ErrClosed", err)
	}
}

// TestBatcherBackpressure pins the load-shedding contract with the
// dispatcher held: a full queue rejects Classify at once with ErrQueueFull,
// ClassifyWait waits until its context ends or the queue drains, and a
// block wider than the queue fails outright.
func TestBatcherBackpressure(t *testing.T) {
	g := newGate()
	b := NewBatcher(BatcherConfig{MaxBatch: 64, MaxQueue: 4}, g.classify)
	held := hold(t, b, g)
	full := submit(t, b, 0, 1, 2, 3)
	if err := b.Classify(rowsOf(9), make([]int, 1), make([]float64, 1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull Classify = %v, want ErrQueueFull", err)
	}
	if got := b.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.ClassifyWait(ctx, rowsOf(9), make([]int, 1), make([]float64, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ClassifyWait on full queue = %v, want canceled", err)
	}
	// A block wider than the queue can never be admitted: fail fast.
	if err := b.Classify(rowsOf(0, 1, 2, 3, 4), make([]int, 5), make([]float64, 5)); err == nil || errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversized block = %v, want a hard error", err)
	}
	// A waiting ClassifyWait is admitted once the held flush finishes and
	// the queued block leaves.
	rejected := b.Stats().Rejected
	waited := make(chan error, 1)
	classes := make([]int, 1)
	go func() {
		waited <- b.ClassifyWait(context.Background(), rowsOf(9), classes, make([]float64, 1))
	}()
	for b.Stats().Rejected == rejected {
		runtime.Gosched() // until ClassifyWait has found the queue full
	}
	close(g.release)
	await(t, held)
	await(t, full)
	if err := <-waited; err != nil || classes[0] != 9 {
		t.Fatalf("ClassifyWait after the queue drained = %v, class %d", err, classes[0])
	}
	if sizes := g.flushSizes(); !reflect.DeepEqual(sizes, []int{1, 4, 1}) {
		t.Fatalf("flush sizes = %v, want [1 4 1]", sizes)
	}
	b.Close()
}

// TestBatcherErrorPropagation: a failing flush reaches every caller in the
// block exactly once, and the dispatcher keeps serving afterwards.
func TestBatcherErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	var fail bool
	var mu sync.Mutex
	b := NewBatcher(BatcherConfig{MaxBatch: 4}, func(rows [][]float64, classes []int, conf []float64) error {
		mu.Lock()
		defer mu.Unlock()
		if fail {
			return boom
		}
		return echoClassify(rows, classes, conf)
	})
	defer b.Close()
	mu.Lock()
	fail = true
	mu.Unlock()
	// 6 rows at MaxBatch 4: the block spans two flushes, and the first
	// failure must surface exactly once.
	if err := b.Classify(rowsOf(0, 1, 2, 3, 4, 5), make([]int, 6), make([]float64, 6)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	mu.Lock()
	fail = false
	mu.Unlock()
	classes := make([]int, 1)
	if err := b.Classify(rowsOf(41), classes, make([]float64, 1)); err != nil {
		t.Fatalf("dispatcher dead after error: %v", err)
	}
	if classes[0] != 41 {
		t.Fatalf("class = %d", classes[0])
	}
}
