// Package serve turns the offline safety monitors into a streaming
// monitor-as-a-service: per-patient sessions assemble raw CGM/insulin
// samples into normalized model inputs (monitor.MLMonitor.AssembleRow), and
// a shared micro-batching dispatcher fuses rows from concurrent sessions
// into single batched inference calls on the frozen stack — N concurrent
// 1-row GEMVs become one N-row GEMM.
//
// The dispatcher is work-conserving: it never holds rows while it is idle,
// so a lone row is classified at once, and batches form only from the rows
// that arrive while a flush is running.
//
// One engine classifies every row: a ClassifyFunc that stages up to
// MaxBatch rows at a time into a pooled buffer and runs one
// nn.InferModel.ClassifyInto per chunk. The dispatcher calls it with each
// flush; under Config.Bypass each request calls it inline instead.
// Batching changes latency, never results: every frozen kernel, at f32 and
// f64, computes each output row independently, so a row's verdict is
// bit-identical whether it is classified alone, inside any fused batch, or
// inline under Bypass.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ClassifyFunc scores a block of assembled (already normalized) feature
// rows: classes[i] and conf[i] receive the argmax class and its softmax
// probability for rows[i]. It is called concurrently — by the dispatcher
// and, under Config.Bypass, by every request goroutine — so
// implementations must keep per-call staging (a pool, not a shared buffer).
type ClassifyFunc func(rows [][]float64, classes []int, conf []float64) error

// ErrQueueFull is returned by Batcher.Classify when admission would exceed
// MaxQueue — callers shed load (HTTP 429) instead of blocking forever.
var ErrQueueFull = errors.New("serve: batcher queue full")

// ErrClosed is returned for work submitted after Close.
var ErrClosed = errors.New("serve: batcher closed")

// errBlockTooLarge is returned for a block wider than MaxQueue: it could
// never be admitted, so waiting or retrying cannot help.
var errBlockTooLarge = errors.New("serve: block exceeds the batcher queue capacity")

// BatcherConfig tunes the micro-batching dispatcher.
type BatcherConfig struct {
	// MaxBatch is the fused flush size in rows (default 32, the same block
	// size the trainer uses — one flush is one GEMM).
	MaxBatch int
	// MaxQueue caps the rows admitted but not yet flushed (default
	// 32×MaxBatch); Classify rejects beyond it, ClassifyWait blocks.
	MaxQueue int
}

func (c *BatcherConfig) setDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 32 * c.MaxBatch
	}
}

// BatcherStats is a snapshot of dispatcher counters.
type BatcherStats struct {
	Flushes     int64 `json:"flushes"`
	FusedRows   int64 `json:"fused_rows"`
	SizeFlushes int64 `json:"size_flushes"` // MaxBatch rows were queued
	// DeadlineFlushes counts partial flushes: fewer than MaxBatch rows were
	// queued when the dispatcher flushed. It keeps the name and JSON key
	// it had when a partial batch waited out a deadline, because readers
	// of the stats still use them.
	DeadlineFlushes int64 `json:"deadline_flushes"`
	DrainFlushes    int64 `json:"drain_flushes"` // flushed during Close drain
	Rejected        int64 `json:"rejected"`      // rows refused with ErrQueueFull
}

// Occupancy returns the mean fused rows per flush.
func (s BatcherStats) Occupancy() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.FusedRows) / float64(s.Flushes)
}

// request is one caller's block of rows awaiting classification. The
// dispatcher may split it across flushes; done receives exactly one value.
type request struct {
	rows    [][]float64
	classes []int
	conf    []float64
	staged  int  // rows handed to flushes (dispatcher-owned)
	filled  int  // results demuxed back (dispatcher-owned)
	dead    bool // a flush failed; done already sent, drop remaining rows
	done    chan error
}

// Batcher is the cross-session micro-batching dispatcher: callers enqueue
// row blocks and block on their verdicts; a single dispatcher goroutine
// drains the queue in arrival order. Whenever it finds rows queued it
// flushes up to MaxBatch of them in one fused classify at once, so rows
// that arrive while a flush runs go out together in the next one.
type Batcher struct {
	cfg      BatcherConfig
	classify ClassifyFunc

	mu       sync.Mutex
	queue    []*request // queue[0] may be partially staged
	rows     int        // un-staged rows across queue
	closed   bool
	stats    BatcherStats
	wake     chan struct{} // cap 1: work arrived / close requested
	space    chan struct{} // cap 1: rows left the queue
	closedCh chan struct{} // closed by Close
	wg       sync.WaitGroup
}

// NewBatcher starts the dispatcher goroutine; callers must Close it to
// drain and stop.
func NewBatcher(cfg BatcherConfig, classify ClassifyFunc) *Batcher {
	cfg.setDefaults()
	b := &Batcher{
		cfg:      cfg,
		classify: classify,
		wake:     make(chan struct{}, 1),
		space:    make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
	b.wg.Add(1)
	go b.loop()
	return b
}

// Stats snapshots the dispatcher counters.
func (b *Batcher) Stats() BatcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Classify enqueues a block of rows and blocks until their verdicts are
// demuxed back into classes/conf. Admission is non-blocking: if the queue
// cannot take the block, ErrQueueFull is returned immediately and no row is
// enqueued (load shedding, not head-of-line blocking).
func (b *Batcher) Classify(rows [][]float64, classes []int, conf []float64) error {
	req, err := b.newRequest(rows, classes, conf)
	if err != nil || req == nil {
		return err
	}
	if err := b.tryEnqueue(req); err != nil {
		return err
	}
	return <-req.done
}

// ClassifyWait is the flow-controlled form of Classify: when the queue is
// full it waits for space (or ctx cancellation / Close) instead of
// rejecting. Streaming ingest uses it so backpressure propagates to the
// client transport rather than dropping samples.
func (b *Batcher) ClassifyWait(ctx context.Context, rows [][]float64, classes []int, conf []float64) error {
	req, err := b.newRequest(rows, classes, conf)
	if err != nil || req == nil {
		return err
	}
	for {
		err := b.tryEnqueue(req)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			return err
		}
		select {
		case <-b.space:
		case <-b.closedCh:
			return ErrClosed
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// Once admitted the dispatcher owns the block and flushes it as soon as
	// the rows ahead of it are done, so no ctx select here — abandoning the
	// slices mid-demux would race.
	return <-req.done
}

func (b *Batcher) newRequest(rows [][]float64, classes []int, conf []float64) (*request, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	if len(classes) != len(rows) || len(conf) != len(rows) {
		return nil, fmt.Errorf("serve: batcher block of %d rows with %d class / %d conf slots", len(rows), len(classes), len(conf))
	}
	if len(rows) > b.cfg.MaxQueue {
		return nil, fmt.Errorf("%w: %d rows, capacity %d", errBlockTooLarge, len(rows), b.cfg.MaxQueue)
	}
	return &request{rows: rows, classes: classes, conf: conf, done: make(chan error, 1)}, nil
}

func (b *Batcher) tryEnqueue(req *request) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	if b.rows+len(req.rows) > b.cfg.MaxQueue {
		b.stats.Rejected += int64(len(req.rows))
		b.mu.Unlock()
		return ErrQueueFull
	}
	b.queue = append(b.queue, req)
	b.rows += len(req.rows)
	b.mu.Unlock()
	signal(b.wake)
	return nil
}

// Close drains every admitted row through final flushes, stops the
// dispatcher, and releases blocked ClassifyWait admissions with ErrClosed.
// It is idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.closedCh)
	signal(b.wake)
	b.wg.Wait()
}

// flushRef records that rows[lo:hi) of req were staged into the current
// flush at batch offsets [at, at+hi-lo).
type flushRef struct {
	req    *request
	lo, hi int
	at     int
}

func (b *Batcher) loop() {
	defer b.wg.Done()
	var (
		flat    = make([][]float64, 0, b.cfg.MaxBatch)
		classes = make([]int, b.cfg.MaxBatch)
		conf    = make([]float64, b.cfg.MaxBatch)
		refs    = make([]flushRef, 0, 8)
	)
	for {
		b.mu.Lock()
		if b.rows == 0 {
			if b.closed {
				b.mu.Unlock()
				return
			}
			b.mu.Unlock()
			<-b.wake
			continue
		}
		// Work-conserving: whatever is queued goes out now, up to MaxBatch
		// rows from the queue head in arrival order. Rows that arrive while
		// this flush runs wait only for it, then leave together.
		refs = refs[:0]
		n := 0
		closing := b.closed
		for n < b.cfg.MaxBatch && len(b.queue) > 0 {
			r := b.queue[0]
			take := len(r.rows) - r.staged
			if take > b.cfg.MaxBatch-n {
				take = b.cfg.MaxBatch - n
			}
			refs = append(refs, flushRef{req: r, lo: r.staged, hi: r.staged + take, at: n})
			r.staged += take
			n += take
			if r.staged == len(r.rows) {
				b.queue[0] = nil
				b.queue = b.queue[1:]
			}
		}
		b.rows -= n
		// Count the flush before any caller is released, so a caller that
		// has its verdicts also sees them in Stats.
		b.stats.Flushes++
		b.stats.FusedRows += int64(n)
		switch {
		case n == b.cfg.MaxBatch:
			b.stats.SizeFlushes++
		case closing:
			b.stats.DrainFlushes++
		default: // partial
			b.stats.DeadlineFlushes++
		}
		b.mu.Unlock()
		signal(b.space)

		flat = flat[:0]
		for _, ref := range refs {
			flat = append(flat, ref.req.rows[ref.lo:ref.hi]...)
		}
		err := b.classify(flat, classes[:n], conf[:n])

		for _, ref := range refs {
			if err != nil {
				// One error fails the whole block exactly once; any rows of
				// it still queued are purged below.
				if !ref.req.dead {
					ref.req.dead = true
					ref.req.done <- err
				}
				continue
			}
			copy(ref.req.classes[ref.lo:ref.hi], classes[ref.at:ref.at+ref.hi-ref.lo])
			copy(ref.req.conf[ref.lo:ref.hi], conf[ref.at:ref.at+ref.hi-ref.lo])
			ref.req.filled += ref.hi - ref.lo
			if ref.req.filled == len(ref.req.rows) {
				ref.req.done <- nil
			}
		}

		b.mu.Lock()
		// A failed block may still own the (partially staged) queue head;
		// drop its remaining rows so the error is not delivered twice.
		if len(b.queue) > 0 && b.queue[0].dead {
			r := b.queue[0]
			b.rows -= len(r.rows) - r.staged
			r.staged = len(r.rows)
			b.queue[0] = nil
			b.queue = b.queue[1:]
		}
		b.mu.Unlock()
	}
}
