package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/monitor"
)

// Config assembles a monitor-serving endpoint.
type Config struct {
	// Monitor is the trained monitor to serve (required).
	Monitor *monitor.MLMonitor
	// Precision selects the inference arithmetic: "" or monitor.F32
	// (default) is the frozen float32 engine, monitor.F64 the canonical
	// double-precision escape hatch.
	Precision monitor.Precision
	// Bypass disables the micro-batching dispatcher: every request is
	// classified inline on its own goroutine (the per-request baseline),
	// MaxBatch rows at a time.
	Bypass bool
	// Batcher tunes the dispatcher; under Bypass only MaxBatch is read.
	Batcher BatcherConfig
	// MaxSessions caps live sessions (default 1024); creation beyond it is
	// rejected with 429.
	MaxSessions int
	// IdleTimeout evicts sessions with no traffic for this long (default
	// 5m; < 0 disables eviction).
	IdleTimeout time.Duration
	// Session provides wrapper defaults for sessions that do not override
	// them at creation.
	Session SessionConfig
}

// Request body caps. Bodies are hostile input: a session config is a few
// numbers, a JSON append a bounded block of samples, and an NDJSON stream
// may run indefinitely but one sample per line. A body or line over its cap
// is refused with 413 and touches no other session.
const (
	maxConfigBytes = 64 << 10
	maxAppendBytes = 8 << 20
	maxLineBytes   = 64 << 10
)

// Server is the streaming monitor-as-a-service HTTP handler.
//
//	POST   /v1/sessions                  create (body: SessionConfig, optional)
//	POST   /v1/sessions/{id}/samples     append samples: JSON array, or NDJSON
//	                                     stream with Content-Type application/x-ndjson
//	GET    /v1/sessions/{id}/verdicts    long-poll: ?from=N&wait=2s
//	GET    /v1/sessions/{id}/stream      chunked NDJSON verdict stream: ?from=N&max=M
//	DELETE /v1/sessions/{id}             close one session
//	GET    /v1/stats                     counters incl. batcher occupancy
//	GET    /healthz                      liveness
type Server struct {
	cfg      Config
	window   int
	chunkCap int // NDJSON ingest block cap (= the batcher fuse limit)
	batcher  *Batcher
	direct   ClassifyFunc
	protoM   *monitor.MOfN  // default debounce prototype (nil if disabled)
	protoC   *monitor.CUSUM // default drift prototype (nil if disabled)

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int
	closed   bool

	evictStop chan struct{}
	evictWG   sync.WaitGroup
}

// New builds a Server and starts its dispatcher (and idle-eviction janitor,
// when enabled). Callers own Close.
func New(cfg Config) (*Server, error) {
	if cfg.Monitor == nil {
		return nil, fmt.Errorf("serve: config needs a monitor")
	}
	window := cfg.Monitor.Window()
	if window < 2 {
		return nil, fmt.Errorf("serve: monitor window %d, want ≥ 2", window)
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	cfg.Batcher.setDefaults()
	s := &Server{
		cfg:      cfg,
		window:   window,
		chunkCap: cfg.Batcher.MaxBatch,
		sessions: make(map[string]*session),
	}
	var err error
	if s.protoM, s.protoC, err = buildWrappers(cfg.Session); err != nil {
		return nil, fmt.Errorf("serve: default session config: %w", err)
	}
	classify, err := newClassify(&s.cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Bypass {
		s.direct = classify
	} else {
		s.batcher = NewBatcher(cfg.Batcher, classify)
	}
	if cfg.IdleTimeout > 0 {
		s.evictStop = make(chan struct{})
		s.evictWG.Add(1)
		go s.evictLoop()
	}
	return s, nil
}

func buildWrappers(cfg SessionConfig) (*monitor.MOfN, *monitor.CUSUM, error) {
	var (
		deb   *monitor.MOfN
		drift *monitor.CUSUM
		err   error
	)
	if cfg.DebounceM != 0 || cfg.DebounceN != 0 {
		if deb, err = monitor.NewMOfN(cfg.DebounceM, cfg.DebounceN); err != nil {
			return nil, nil, err
		}
	}
	if cfg.CUSUMH != 0 {
		if drift, err = monitor.NewCUSUM(cfg.CUSUMK, cfg.CUSUMH); err != nil {
			return nil, nil, err
		}
	}
	return deb, drift, nil
}

// Window returns the monitor's context window (samples per verdict warmup).
func (s *Server) Window() int { return s.window }

// BatcherStats snapshots the dispatcher counters (zero value under Bypass).
func (s *Server) BatcherStats() BatcherStats {
	if s.batcher == nil {
		return BatcherStats{}
	}
	return s.batcher.Stats()
}

// Close evicts every session, drains the batcher (in-flight appends still
// receive their verdicts), and stops background goroutines. Idempotent.
// When fronted by an http.Server, call its Shutdown first so no new
// requests race the drain.
func (s *Server) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.sessions = make(map[string]*session)
	s.mu.Unlock()
	if !already && s.evictStop != nil {
		close(s.evictStop)
	}
	for _, sess := range open {
		sess.shut()
	}
	if s.batcher != nil {
		s.batcher.Close()
	}
	if s.evictStop != nil {
		s.evictWG.Wait()
	}
}

func (s *Server) evictLoop() {
	defer s.evictWG.Done()
	period := s.cfg.IdleTimeout / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.evictStop:
			return
		case now := <-t.C:
			deadline := now.Add(-s.cfg.IdleTimeout)
			s.mu.Lock()
			var stale []*session
			for id, sess := range s.sessions {
				if sess.stale(deadline) {
					stale = append(stale, sess)
					delete(s.sessions, id)
				}
			}
			s.mu.Unlock()
			for _, sess := range stale {
				sess.shut()
			}
		}
	}
}

// classifyReject is the load-shedding classify used by unary appends: a full
// queue surfaces as ErrQueueFull (HTTP 429) instead of blocking.
func (s *Server) classifyReject(ctx context.Context, rows [][]float64, classes []int, conf []float64) error {
	if s.batcher != nil {
		return s.batcher.Classify(rows, classes, conf)
	}
	return s.direct(rows, classes, conf)
}

// classifyWait is the flow-controlled classify used by streaming ingest:
// backpressure blocks the reader (and so the client transport) instead of
// dropping samples.
func (s *Server) classifyWait(ctx context.Context, rows [][]float64, classes []int, conf []float64) error {
	if s.batcher != nil {
		return s.batcher.ClassifyWait(ctx, rows, classes, conf)
	}
	return s.direct(rows, classes, conf)
}

// ServeHTTP implements http.Handler with Go 1.21-compatible manual routing.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	case path == "/v1/stats":
		s.handleStats(w, r)
	case path == "/v1/sessions" || path == "/v1/sessions/":
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		s.handleCreate(w, r)
	case strings.HasPrefix(path, "/v1/sessions/"):
		rest := strings.TrimPrefix(path, "/v1/sessions/")
		id, sub, _ := strings.Cut(rest, "/")
		if id == "" {
			httpError(w, http.StatusNotFound, "missing session id")
			return
		}
		s.handleSession(w, r, id, sub)
	default:
		httpError(w, http.StatusNotFound, "no such route")
	}
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request, id, sub string) {
	sess := s.lookup(id)
	if sess == nil {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodDelete:
		s.handleDelete(w, sess)
	case sub == "samples" && r.Method == http.MethodPost:
		if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-ndjson") {
			s.handleIngestStream(w, r, sess)
		} else {
			s.handleAppend(w, r, sess)
		}
	case sub == "verdicts" && r.Method == http.MethodGet:
		s.handleVerdicts(w, r, sess)
	case sub == "stream" && r.Method == http.MethodGet:
		s.handleStream(w, r, sess)
	default:
		httpError(w, http.StatusNotFound, "no such route")
	}
}

func (s *Server) lookup(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	cfg := s.cfg.Session
	if r.ContentLength != 0 {
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxConfigBytes)).Decode(&cfg); err != nil {
			bodyError(w, "bad session config", err)
			return
		}
	}
	var (
		deb   *monitor.MOfN
		drift *monitor.CUSUM
	)
	if cfg == s.cfg.Session {
		// Default config: clone the validated prototypes instead of sharing
		// them — wrapper state is strictly per-session.
		if s.protoM != nil {
			deb = s.protoM.Clone()
		}
		if s.protoC != nil {
			drift = s.protoC.Clone()
		}
	} else {
		var err error
		if deb, drift, err = buildWrappers(cfg); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server closing")
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		httpError(w, http.StatusTooManyRequests, "session limit reached")
		return
	}
	s.nextID++
	id := "s-" + strconv.Itoa(s.nextID)
	sess := newSession(id, s.window, cfg, deb, drift, time.Now())
	s.sessions[id] = sess
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":     id,
		"window": s.window,
		"warmup": s.window - 1,
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	sess.shut()
	writeJSON(w, http.StatusOK, map[string]any{"closed": sess.id})
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request, sess *session) {
	var raw []Sample
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAppendBytes)).Decode(&raw); err != nil {
		bodyError(w, "bad samples", err)
		return
	}
	verdicts, err := sess.ingest(r.Context(), s.cfg.Monitor, s.classifyReject, raw)
	if err != nil {
		appendError(w, err)
		return
	}
	if verdicts == nil {
		verdicts = []Verdict{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"accepted": len(raw), "verdicts": verdicts})
}

// handleIngestStream consumes an NDJSON sample stream, scoring lines as
// they arrive; the client reads verdicts over a parallel GET stream. The
// response is a single summary object at EOF.
//
// Lines are chunked adaptively: everything already buffered is scored as
// one block (one batcher enqueue, up to the fuse limit) but the handler
// never waits for more input, so a client dribbling single samples still
// sees per-sample latency while a pipelining client gets block ingest for
// free. Samples within a session stay strictly ordered either way, which
// is what keeps the verdict stream bit-identical across chunk shapes.
func (s *Server) handleIngestStream(w http.ResponseWriter, r *http.Request, sess *session) {
	// ReadSlice fails with bufio.ErrBufferFull on a line longer than the
	// buffer, so the buffer size is the line cap.
	br := bufio.NewReaderSize(r.Body, maxLineBytes)
	chunk := make([]Sample, 0, s.chunkCap)
	accepted, emitted := 0, 0
	flush := func() bool {
		if len(chunk) == 0 {
			return true
		}
		verdicts, err := sess.ingest(r.Context(), s.cfg.Monitor, s.classifyWait, chunk)
		if err != nil {
			appendError(w, err)
			return false
		}
		accepted += len(chunk)
		emitted += len(verdicts)
		chunk = chunk[:0]
		return true
	}
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("sample %d: line exceeds %d bytes", accepted+len(chunk), maxLineBytes))
			return
		}
		if len(bytes.TrimSpace(line)) > 0 {
			var smp Sample
			if uerr := json.Unmarshal(line, &smp); uerr != nil {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("sample %d: %v", accepted+len(chunk), uerr))
				return
			}
			chunk = append(chunk, smp)
		}
		if err != nil {
			if err != io.EOF {
				httpError(w, http.StatusBadRequest, "ingest stream: "+err.Error())
				return
			}
			if !flush() {
				return
			}
			break
		}
		if len(chunk) >= s.chunkCap || br.Buffered() == 0 {
			if !flush() {
				return
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"accepted": accepted, "verdicts": emitted})
}

// bodyError answers a request body that failed to decode: 413 when it
// crossed its size cap, 400 otherwise.
func bodyError(w http.ResponseWriter, what string, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, what+": "+err.Error())
}

func appendError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errBadSample):
		httpError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, errBlockTooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, err.Error())
	case errors.Is(err, ErrQueueFull):
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrClosed), errors.Is(err, errSessionClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.Canceled):
		httpError(w, http.StatusBadRequest, "client canceled")
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request, sess *session) {
	from := queryInt(r, "from", 0)
	wait, err := queryWait(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	deadline := time.Now().Add(wait)
	for {
		verdicts, ch, closed := sess.read(from)
		if len(verdicts) > 0 || closed || wait == 0 {
			if verdicts == nil {
				verdicts = []Verdict{}
			}
			writeJSON(w, http.StatusOK, map[string]any{
				"from":     from,
				"verdicts": verdicts,
				"closed":   closed,
			})
			return
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			writeJSON(w, http.StatusOK, map[string]any{"from": from, "verdicts": []Verdict{}, "closed": false})
			return
		}
		select {
		case <-ch:
		case <-time.After(remain):
		case <-r.Context().Done():
			return
		}
	}
}

// handleStream writes verdicts as chunked NDJSON as they appear, ending at
// ?max=M verdicts (0 = until the session closes or the client goes away).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, sess *session) {
	from := queryInt(r, "from", 0)
	max := queryInt(r, "max", 0)
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Push the headers to the wire immediately: clients block on them before
	// starting the ingest stream that produces the first verdict.
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	sent := 0
	for {
		verdicts, ch, closed := sess.read(from)
		for _, v := range verdicts {
			if err := enc.Encode(v); err != nil {
				return
			}
			from++
			sent++
			if max > 0 && sent >= max {
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
		}
		if len(verdicts) > 0 && flusher != nil {
			flusher.Flush()
		}
		if len(verdicts) > 0 {
			continue
		}
		if closed {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()
	samples, verdicts := 0, 0
	for _, sess := range open {
		in, out := sess.counts()
		samples += in
		verdicts += out
	}
	stats := map[string]any{
		"sessions":  len(open),
		"samples":   samples,
		"verdicts":  verdicts,
		"window":    s.window,
		"precision": s.cfg.Precision,
		"bypass":    s.cfg.Bypass,
	}
	if s.batcher != nil {
		bs := s.batcher.Stats()
		stats["batcher"] = bs
		stats["occupancy"] = bs.Occupancy()
	}
	writeJSON(w, http.StatusOK, stats)
}

func queryInt(r *http.Request, key string, def int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

func queryWait(r *http.Request) (time.Duration, error) {
	v := r.URL.Query().Get("wait")
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("bad wait %q: %w", v, err)
	}
	if d < 0 {
		d = 0
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg})
}
