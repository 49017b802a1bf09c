package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/controller"
	"repro/internal/dataset"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// Sample is the wire form of one monitor-visible step: the raw signals a
// pump controller actually has. The server derives everything else the
// feature extractor needs (derivatives from consecutive samples, the Table I
// action class from the rate transition) so clients never re-implement the
// paper's feature engineering.
type Sample struct {
	CGM       float64 `json:"cgm"`  // sensed glucose (mg/dL)
	IOB       float64 `json:"iob"`  // insulin on board (U)
	Rate      float64 `json:"rate"` // issued basal rate (U/h)
	CarbsRate float64 `json:"carbs,omitempty"`
	// Action optionally overrides the derived Table I action class
	// (1=decrease, 2=increase, 3=stop, 4=keep); 0 derives it from the rate
	// transition.
	Action int `json:"action,omitempty"`
}

// Verdict is one scored sample. Seq is the 0-based index of the ingested
// sample the verdict covers; the first Window()−1 samples are warmup and
// produce no verdict.
type Verdict struct {
	Seq    int     `json:"seq"`
	Unsafe bool    `json:"unsafe"` // post-debounce decision
	Raw    bool    `json:"raw"`    // per-sample model verdict, pre-debounce
	Conf   float64 `json:"conf"`   // winning-class softmax probability
	Drift  bool    `json:"drift"`  // CUSUM drift alarm state
}

// SessionConfig is the per-session wrapper configuration, set at session
// creation.
type SessionConfig struct {
	// DebounceM / DebounceN enable m-of-n alarm stabilization (0/0 = raw).
	DebounceM int `json:"debounce_m,omitempty"`
	DebounceN int `json:"debounce_n,omitempty"`
	// CUSUMK / CUSUMH enable the drift detector over unsafe probability
	// (H = 0 disables it).
	CUSUMK float64 `json:"cusum_k,omitempty"`
	CUSUMH float64 `json:"cusum_h,omitempty"`
	// StepMin is the sampling period in minutes (default 5, the paper's).
	StepMin float64 `json:"step_min,omitempty"`
}

// session owns one patient stream: the record window, the stateful wrapper
// instances (cloned, never shared), and the verdict log. All state is
// guarded by mu; appends to one session serialize, and the cross-session
// parallelism comes from the shared batcher fusing concurrent sessions.
type session struct {
	id      string
	stepMin float64

	mu       sync.Mutex
	win      []sim.Record
	window   int
	prev     Sample
	hasPrev  bool
	ingested int            // samples accepted so far
	debounce *monitor.MOfN  // nil when disabled
	drift    *monitor.CUSUM // nil when disabled
	verdicts []Verdict
	notify   chan struct{} // closed and replaced on every verdict append / close
	closed   bool
	lastUsed time.Time

	// Reusable per-append staging (safe: appends serialize under mu and the
	// batcher releases row buffers before Classify returns).
	rows    [][]float64
	rowBuf  []float64
	saved   []sim.Record // the window on entry, restored if ingest fails
	seqs    []int
	classes []int
	conf    []float64
}

func newSession(id string, window int, cfg SessionConfig, deb *monitor.MOfN, drift *monitor.CUSUM, now time.Time) *session {
	stepMin := cfg.StepMin
	if stepMin <= 0 {
		stepMin = 5
	}
	return &session{
		id:       id,
		stepMin:  stepMin,
		window:   window,
		win:      make([]sim.Record, 0, window),
		debounce: deb,
		drift:    drift,
		notify:   make(chan struct{}),
		lastUsed: now,
	}
}

// maxReading bounds the magnitude of every raw reading a session accepts.
// It is far beyond physiology (glucose tops out near 600 mg/dL, a pump's
// rate near 35 U/h), yet small enough that the deltas and normalized
// features of accepted readings stay finite. A reading past it is refused
// when it arrives: accepted during warmup, it would sit in every later
// window and make each later row non-finite.
const maxReading = 1e6

// ingest converts raw samples to records, assembles one normalized model row
// per full window, classifies the block through classify (one call — the
// whole POST body becomes at most one batcher enqueue), applies the
// session's stateful wrappers in ingest order, and appends the resulting
// verdicts to the log.
//
// Ingest is all-or-nothing: on any error the window is put back as it was
// on entry, so a rejected block (a non-finite row, a full queue, a closing
// server) leaves no trace and a client that retries it does not ingest its
// samples twice.
func (s *session) ingest(ctx context.Context, m *monitor.MLMonitor, classify func(context.Context, [][]float64, []int, []float64) error, raw []Sample) (_ []Verdict, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errSessionClosed
	}
	s.lastUsed = time.Now()

	s.saved = append(s.saved[:0], s.win...)
	prev, hasPrev, ingested := s.prev, s.hasPrev, s.ingested
	defer func() {
		if err != nil {
			s.win = append(s.win[:0], s.saved...)
			s.prev, s.hasPrev, s.ingested = prev, hasPrev, ingested
		}
	}()

	inSize := m.Model().InputSize()
	if cap(s.rowBuf) < len(raw)*inSize {
		s.rowBuf = make([]float64, len(raw)*inSize)
	}
	s.rows = s.rows[:0]
	s.seqs = s.seqs[:0]
	nready := 0
	for _, r := range raw {
		for _, v := range [...]float64{r.CGM, r.IOB, r.Rate, r.CarbsRate} {
			if !(math.Abs(v) <= maxReading) {
				return nil, fmt.Errorf("%w: sample %d reads %g, beyond the ±%g bound on any raw reading", errBadSample, s.ingested, v, maxReading)
			}
		}
		rec := s.toRecord(r)
		if len(s.win) == s.window {
			copy(s.win, s.win[1:])
			s.win[s.window-1] = rec
		} else {
			s.win = append(s.win, rec)
		}
		seq := s.ingested
		s.ingested++
		if len(s.win) < s.window {
			continue // warmup: not enough context yet
		}
		sample, err := dataset.SampleFromWindow(s.win, s.stepMin)
		if err != nil {
			return nil, err
		}
		row := s.rowBuf[nready*inSize : (nready+1)*inSize]
		if err := m.AssembleRow(sample, row); err != nil {
			return nil, err
		}
		// JSON carries no NaN or Inf, but finite extremes (±1.7e308) overflow
		// in the derived features, and ReLU would turn a NaN into a
		// confident verdict.
		for _, v := range row {
			if !finite(v) {
				return nil, fmt.Errorf("%w: sample %d assembles a non-finite feature", errBadSample, seq)
			}
		}
		s.rows = append(s.rows, row)
		s.seqs = append(s.seqs, seq)
		nready++
	}
	if nready == 0 {
		return nil, nil
	}
	if cap(s.classes) < nready {
		s.classes = make([]int, nready)
		s.conf = make([]float64, nready)
	}
	classes, conf := s.classes[:nready], s.conf[:nready]
	if err := classify(ctx, s.rows, classes, conf); err != nil {
		return nil, err
	}
	// A finite row can still overflow inside the model (float32 staging
	// tops out near 3.4e38); no verdict is better than a NaN confidence.
	for i, c := range conf {
		if !finite(c) {
			return nil, fmt.Errorf("%w: sample %d scores a non-finite confidence", errBadSample, s.seqs[i])
		}
	}

	out := make([]Verdict, nready)
	for i := 0; i < nready; i++ {
		v := Verdict{Seq: s.seqs[i], Raw: classes[i] == 1, Conf: conf[i]}
		v.Unsafe = v.Raw
		if s.debounce != nil {
			v.Unsafe = s.debounce.Update(v.Raw)
		}
		if s.drift != nil {
			p := conf[i]
			if classes[i] != 1 {
				p = 1 - conf[i]
			}
			v.Drift = s.drift.Update(p)
		}
		out[i] = v
	}
	s.verdicts = append(s.verdicts, out...)
	close(s.notify)
	s.notify = make(chan struct{})
	return out, nil
}

// toRecord lifts a wire sample into the simulator record the feature
// extractor consumes, deriving deltas and the action class server-side.
func (s *session) toRecord(r Sample) sim.Record {
	rec := sim.Record{
		Step:      s.ingested,
		TimeMin:   float64(s.ingested) * s.stepMin,
		CGM:       r.CGM,
		IOB:       r.IOB,
		Rate:      r.Rate,
		CarbsRate: r.CarbsRate,
	}
	if r.Action != 0 {
		rec.Action = controller.Action(r.Action)
	} else {
		prevRate := r.Rate
		if s.hasPrev {
			prevRate = s.prev.Rate
		}
		rec.Action = controller.Classify(prevRate, r.Rate, 0.01)
	}
	if s.hasPrev {
		rec.DeltaBG = (r.CGM - s.prev.CGM) / s.stepMin
		rec.DeltaIOB = (r.IOB - s.prev.IOB) / s.stepMin
	}
	s.prev = r
	s.hasPrev = true
	return rec
}

// read returns verdicts[from:] (by verdict index) if any exist, plus the
// notify channel to wait on otherwise and whether the session is closed.
func (s *session) read(from int) ([]Verdict, chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastUsed = time.Now()
	if from < 0 {
		from = 0
	}
	if from < len(s.verdicts) {
		out := make([]Verdict, len(s.verdicts)-from)
		copy(out, s.verdicts[from:])
		return out, nil, s.closed
	}
	return nil, s.notify, s.closed
}

// stale reports whether the session has been idle since the deadline.
func (s *session) stale(deadline time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastUsed.Before(deadline)
}

// shut marks the session closed and wakes all waiting readers.
func (s *session) shut() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.notify)
	s.notify = make(chan struct{})
}

// counts returns (samples ingested, verdicts emitted).
func (s *session) counts() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ingested, len(s.verdicts)
}

var errSessionClosed = fmt.Errorf("serve: session closed")

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// errBadSample marks an ingest error the client caused with its samples.
var errBadSample = errors.New("serve: bad sample")
