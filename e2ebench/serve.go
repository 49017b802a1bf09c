package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/serve"
)

// serveProfile is one serve workload's traffic shape. Rates are in samples
// per second; an upload carries rows samples of one session.
type serveProfile struct {
	name string
	rows int
	// sessions is the number of concurrent patient sessions.
	sessions int
	// refRate is the reference rate p50_ms and serve.p99_ms are measured at.
	refRate float64
	// ladder is the fixed rate ladder serve.rate_max is read from.
	ladder []float64
	// limit is the p99 a ladder step must meet to count.
	limit time.Duration
	// backfill is the number of uploads in one closed-loop run_s pass.
	backfill int
}

// Today's knees on two cores: about 1.3k samples/s for single-sample
// uploads through the batcher (about 10k/s bypassing it) and about 125k
// samples/s for 32-sample uploads. Each ladder doubles, so a knee moves a
// whole step before serve.rate_max changes. The 50 ms p99 limit is loose
// for a monitor fed every five minutes, so the step that fails is the one
// whose backlog grows.
var (
	// sparseProfile: CGM devices send one reading at a time, so the batcher
	// cannot fill a batch and per-request overhead and the batch-wait
	// deadline dominate.
	sparseProfile = serveProfile{
		name: "serve-sparse", rows: 1, sessions: 32,
		refRate: 300,
		ladder:  []float64{175, 350, 700, 1400, 2800, 5600, 11200},
		limit:   50 * time.Millisecond, backfill: 1500,
	}
	// burstProfile: a pump backfilling after a gap uploads a full fused
	// batch (the default fuse limit is 32 rows) per request, so flushes are
	// size flushes through the float32 kernel at batch 32.
	burstProfile = serveProfile{
		name: "serve-burst", rows: 32, sessions: 32,
		refRate: 16000,
		ladder:  []float64{6000, 12000, 24000, 48000, 96000, 192000},
		limit:   50 * time.Millisecond, backfill: 2000,
	}
)

const (
	// refShare and ladderShare are the shares of the measurement window
	// the reference chunks and the whole ladder get; backfill passes take
	// the rest.
	refShare    = 0.45
	ladderShare = 0.25
	// minRefUploads keeps ≥10 samples beyond the reference p99.
	minRefUploads = 1000
	// maxStepUploads caps a ladder step, so the steps above the knee, which
	// fail fast, do not inflate the scripts the set-up must check against.
	maxStepUploads = 1500
	// rounds is how many backfill passes and reference chunks a run
	// interleaves, so a burst of machine noise spoils a few rounds, not a
	// whole metric; run_s and p50_ms are medians over rounds.
	rounds    = 6
	setupReps = 7 // set-ups per run; setup_s is their median
	// abortLag is how far behind schedule a ladder step's sender may fall
	// before it stops sending: the step is failing already.
	abortLag = 500 * time.Millisecond
)

// upload is one scheduled request of a phase.
type upload struct {
	session int
	offset  int // index of the upload's first sample in the session script
	due     time.Duration
	body    []byte

	sent, done time.Duration
	status     string // "" ok; otherwise why it failed or was skipped
}

const (
	statusSkipped  = "skipped"
	statusCanceled = "canceled"
)

// phase is one run of uploads against fresh sessions: every phase starts
// each session's script from its first sample, so one set of reference
// verdicts checks them all.
type phase struct {
	name    string
	rate    float64 // samples/s offered; +Inf for a closed loop
	uploads []*upload
}

// plan is a serve run's whole traffic, drawn from the seed before set-up so
// the set-up can compute reference verdicts for exactly these scripts.
type plan struct {
	backfill []*phase // one closed-loop pass per round
	ref      []*phase // one open-loop reference chunk per round
	ladder   []*phase
	bypass   []*phase // the reference chunks again, for a Bypass server
	scripts  [][]serve.Sample
}

// draw makes a phase of n uploads at rate samples/s, with exponential gaps
// (all due at once when rate is infinite), to the sessions in turn — so
// every connection carries the same share — and raises need[s] to the
// samples session s uses.
func draw(rng *rand.Rand, p serveProfile, name string, rate float64, n int, need []int) *phase {
	ph := &phase{name: name, rate: rate, uploads: make([]*upload, n)}
	cursors := make([]int, p.sessions)
	var t float64
	for i := range ph.uploads {
		if !math.IsInf(rate, 1) {
			t += rng.ExpFloat64() / (rate / float64(p.rows))
		}
		s := i % p.sessions
		ph.uploads[i] = &upload{session: s, offset: cursors[s], due: time.Duration(t * float64(time.Second))}
		cursors[s] += p.rows
		if cursors[s] > need[s] {
			need[s] = cursors[s]
		}
	}
	return ph
}

func makePlan(p serveProfile, seed int64, secs float64, traced bool) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	need := make([]int, p.sessions)
	pl := &plan{}
	n := int(math.Max(minRefUploads, p.refRate/float64(p.rows)*refShare*secs)) / rounds
	for i := 0; i < rounds; i++ {
		pl.backfill = append(pl.backfill, draw(rng, p, fmt.Sprintf("backfill-%d", i), math.Inf(1), p.backfill, need))
		pl.ref = append(pl.ref, draw(rng, p, fmt.Sprintf("ref@%.0f-%d", p.refRate, i), p.refRate, n, need))
	}
	step := ladderShare * secs / float64(len(p.ladder))
	for _, r := range p.ladder {
		pl.ladder = append(pl.ladder, draw(rng, p, fmt.Sprintf("ladder@%.0f", r), r, int(math.Min(maxStepUploads, math.Ceil(r/float64(p.rows)*step))), need))
	}
	if traced {
		for i, ref := range pl.ref {
			by := &phase{name: fmt.Sprintf("bypass@%.0f-%d", p.refRate, i), rate: p.refRate}
			for _, u := range ref.uploads {
				c := *u
				by.uploads = append(by.uploads, &c)
			}
			pl.bypass = append(pl.bypass, by)
		}
	}
	pl.scripts = make([][]serve.Sample, p.sessions)
	for s := range pl.scripts {
		pl.scripts[s] = serve.Script(seed, s, need[s])
	}
	// Phases restart the scripts, so uploads share their bodies.
	bodies := map[[2]int][]byte{}
	for _, ph := range pl.phases() {
		for _, u := range ph.uploads {
			key := [2]int{u.session, u.offset}
			if bodies[key] == nil {
				b, err := json.Marshal(pl.scripts[u.session][u.offset : u.offset+p.rows])
				if err != nil {
					return nil, err
				}
				bodies[key] = b
			}
			u.body = bodies[key]
		}
	}
	return pl, nil
}

func (pl *plan) phases() []*phase {
	out := append([]*phase{}, pl.backfill...)
	out = append(out, pl.ref...)
	out = append(out, pl.bypass...)
	return append(out, pl.ladder...)
}

// rig is one in-process server behind a loopback listener. Nothing runs
// outside the benchmark's process.
type rig struct {
	srv    *serve.Server
	ts     *httptest.Server
	warmup int
}

func startRig(m *monitor.MLMonitor, bypass bool) (*rig, error) {
	srv, err := serve.New(serve.Config{Monitor: m, Bypass: bypass, IdleTimeout: -1})
	if err != nil {
		return nil, err
	}
	return &rig{srv: srv, ts: httptest.NewServer(srv), warmup: srv.Window() - 1}, nil
}

// close shuts the HTTP server down (closing its listener and waiting for
// in-flight requests), then drains and stops the serve.Server.
func (r *rig) close() {
	r.ts.Close()
	r.srv.Close()
}

// open creates n sessions and returns their ids and creation times.
func (r *rig) open(ctx context.Context, client *http.Client, n int) ([]string, []time.Duration, error) {
	ids := make([]string, 0, n)
	took := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.ts.URL+"/v1/sessions", nil)
		if err != nil {
			return nil, nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, nil, fmt.Errorf("create session: %w", err)
		}
		var cr struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			return nil, nil, fmt.Errorf("create session: status %d: %v", resp.StatusCode, err)
		}
		took = append(took, time.Since(t0))
		ids = append(ids, cr.ID)
	}
	return ids, took, nil
}

// shut deletes sessions; their verdict logs would otherwise pile up.
func (r *rig) shut(ctx context.Context, client *http.Client, ids []string) error {
	for _, id := range ids {
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete, r.ts.URL+"/v1/sessions/"+id, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("delete session: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return nil
}

// references returns, per session, the verdict each script sample must get
// (indexed by sequence number), from a Bypass server fed whole scripts.
func references(m *monitor.MLMonitor, scripts [][]serve.Sample) ([][]serve.Verdict, error) {
	srv, err := serve.New(serve.Config{Monitor: m, Bypass: true, IdleTimeout: -1})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	// The handler is called in-process: what is compared is the server's
	// output, and set-up time is not spent waiting on loopback round trips.
	call := func(method, path string, body []byte, want int, v any) error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != want {
			return fmt.Errorf("%s %s: status %d", method, path, rec.Code)
		}
		return json.Unmarshal(rec.Body.Bytes(), v)
	}
	out := make([][]serve.Verdict, len(scripts))
	for s, script := range scripts {
		var cr struct {
			ID string `json:"id"`
		}
		if err := call(http.MethodPost, "/v1/sessions", nil, http.StatusCreated, &cr); err != nil {
			return nil, err
		}
		body, err := json.Marshal(script)
		if err != nil {
			return nil, err
		}
		var ar struct {
			Verdicts []serve.Verdict `json:"verdicts"`
		}
		if err := call(http.MethodPost, "/v1/sessions/"+cr.ID+"/samples", body, http.StatusOK, &ar); err != nil {
			return nil, err
		}
		out[s] = make([]serve.Verdict, len(script))
		for _, v := range ar.Verdicts {
			if v.Seq < 0 || v.Seq >= len(script) {
				return nil, fmt.Errorf("reference session %d: verdict seq %d out of range", s, v.Seq)
			}
			out[s][v.Seq] = v
		}
	}
	return out, nil
}

// post uploads one JSON sample array and returns the verdicts.
func post(ctx context.Context, client *http.Client, base, session string, body []byte) ([]serve.Verdict, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sessions/"+session+"/samples", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode, nil
	}
	var ar struct {
		Verdicts []serve.Verdict `json:"verdicts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		return nil, resp.StatusCode, err
	}
	return ar.Verdicts, resp.StatusCode, nil
}

// check reports why the verdicts of u differ from the reference ("" when
// they match): one verdict per sample past the session's warmup, each
// equal to the Bypass server's.
func check(u *upload, rows, warmup int, got, ref []serve.Verdict) string {
	first := u.offset
	if first < warmup {
		first = warmup
	}
	want := u.offset + rows - first
	if want < 0 {
		want = 0
	}
	if len(got) != want {
		return fmt.Sprintf("%d verdicts, want %d", len(got), want)
	}
	for i, v := range got {
		seq := first + i
		if seq >= len(ref) || v != ref[seq] {
			return fmt.Sprintf("verdict for seq %d differs from the bypass reference", seq)
		}
	}
	return ""
}

// sender sends phases over at most len(clients) keep-alive connections:
// worker w owns the sessions s with s%workers == w, so each session's
// uploads stay in order, and sends each upload when it falls due or, if
// its connection is still busy, as soon as the connection frees up.
// Sessions are created and deleted between phases over worker 0's
// connection, so no other connection is ever open.
type sender struct {
	rig     *rig
	rows    int
	refs    [][]serve.Verdict
	clients []*http.Client
	tr      *tracer
	creates []float64 // ms per session creation
}

func newSender(r *rig, p serveProfile, refs [][]serve.Verdict, workers int) *sender {
	snd := &sender{rig: r, rows: p.rows, refs: refs}
	for w := 0; w < workers; w++ {
		snd.clients = append(snd.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	return snd
}

func (snd *sender) close() {
	for _, c := range snd.clients {
		c.CloseIdleConnections()
	}
}

// run sends one phase to fresh sessions and returns its elapsed time. With
// abort set, a worker that falls abortLag behind schedule skips the rest of
// its uploads (a ladder step already failing).
func (snd *sender) run(ctx context.Context, ph *phase, abort bool, parent int) (time.Duration, error) {
	ids, took, err := snd.rig.open(ctx, snd.clients[0], len(snd.refs))
	if err != nil {
		return 0, err
	}
	for _, t := range took {
		snd.creates = append(snd.creates, millis(t))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := range snd.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			snd.work(ctx, ph, ids, w, abort, parent, start)
		}(w)
	}
	wg.Wait()
	el := time.Since(start)
	return el, snd.rig.shut(context.WithoutCancel(ctx), snd.clients[0], ids)
}

func (snd *sender) work(ctx context.Context, ph *phase, ids []string, w int, abort bool, parent int, start time.Time) {
	client := snd.clients[w]
	behind := false
	for _, u := range ph.uploads {
		if u.session%len(snd.clients) != w {
			continue
		}
		if wait := u.due - time.Since(start); wait > 0 && ctx.Err() == nil {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		u.sent = time.Since(start)
		behind = behind || (abort && u.sent-u.due > abortLag)
		switch {
		case ctx.Err() != nil:
			u.status = statusCanceled
			continue
		case behind:
			// Sticky: a session that skipped a sample cannot send later
			// ones, or its window would differ from the reference.
			u.status = statusSkipped
			continue
		}
		id := snd.tr.begin(parent, "serve.upload")
		got, status, err := post(ctx, client, snd.rig.ts.URL, ids[u.session], u.body)
		u.done = time.Since(start)
		snd.tr.end(id)
		switch {
		case err != nil:
			u.status = err.Error()
		case status != http.StatusOK:
			u.status = "status " + strconv.Itoa(status)
		default:
			u.status = check(u, snd.rows, snd.rig.warmup, got, snd.refs[u.session])
		}
	}
}

// phaseStats summarises one finished phase.
type phaseStats struct {
	sent, ok, failed, skipped int
	lat, rtt, lag             []float64 // ms: from due, from send, send lateness
	samplesPerS               float64
	backlog                   bool
	firstErr                  string
}

func summarise(ph *phase, rows int, elapsed time.Duration, limit time.Duration) phaseStats {
	var ps phaseStats
	var end time.Duration // last due time: the phase's scheduled end
	for _, u := range ph.uploads {
		if u.due > end {
			end = u.due
		}
	}
	outstanding := 0
	for _, u := range ph.uploads {
		switch u.status {
		case statusSkipped, statusCanceled:
			ps.skipped++
			continue
		case "":
			ps.ok++
		default:
			ps.failed++
			if ps.firstErr == "" {
				ps.firstErr = u.status
			}
		}
		ps.sent++
		ps.lat = append(ps.lat, millis(u.done-u.due))
		ps.rtt = append(ps.rtt, millis(u.done-u.sent))
		ps.lag = append(ps.lag, millis(u.sent-u.due))
		if u.done > end {
			outstanding++
		}
	}
	ps.samplesPerS = float64(ps.ok*rows) / elapsed.Seconds()
	// By Little's law a stable queue holds about rate×latency uploads; more
	// than a latency limit's worth of arrivals still pending at the
	// scheduled end, or any skipped upload, means the backlog was growing.
	ps.backlog = ps.skipped > 0 || float64(outstanding) > ph.rate/float64(rows)*limit.Seconds()+1
	return ps
}

func (ps phaseStats) line(name string) string {
	s := fmt.Sprintf("phase %s: sent=%d ok=%d failed=%d skipped=%d p50=%.3fms p99=%.3fms lag_p99=%.3fms rate=%.0f/s backlog=%t",
		name, ps.sent, ps.ok, ps.failed, ps.skipped, quantile(ps.lat, 0.5), quantile(ps.lat, 0.99), quantile(ps.lag, 0.99), ps.samplesPerS, ps.backlog)
	if ps.firstErr != "" {
		s += " first_error=" + strconv.Quote(ps.firstErr)
	}
	return s
}

// servedMonitor returns the served model, the Glucosym MLP, from the store.
func servedMonitor(cfg experiments.Config) (*monitor.MLMonitor, error) {
	a, err := experiments.Build(cfg)
	if err != nil {
		return nil, err
	}
	return a.Sims[dataset.Glucosym].MLMonitor("mlp")
}

// runServe measures one serve workload. Set-up (repeated setupReps times;
// setup_s is the median) loads the served model from the store, starts the
// server and computes the reference verdicts on a Bypass server. Then,
// against the last set-up's server: rounds of one closed-loop backfill
// pass (run_s) and one open-loop reference chunk (p50_ms, serve.p99_ms),
// and the rate ladder (serve.rate_max), which stops at its first failing
// step.
func runServe(ctx context.Context, o options, p serveProfile) (*result, error) {
	cfg := benchConfig(o.seed)
	res := &result{metrics: map[string]float64{}}
	var tr *tracer
	if o.trace {
		tr = newTracer(p.name, o.seed)
	}
	pl, err := makePlan(p, o.seed, o.seconds, o.trace)
	if err != nil {
		return nil, err
	}
	err = withStore(o.dir, o.workers, func(*meteredStore) error {
		// Training the served model is input generation, not set-up: it
		// happens once, before the timed set-ups load it.
		if _, err := servedMonitor(cfg); err != nil {
			return fmt.Errorf("train served model: %w", err)
		}
		var (
			r      *rig
			m      *monitor.MLMonitor
			refs   [][]serve.Verdict
			setups []float64
		)
		defer func() {
			if r != nil {
				r.close()
			}
		}()
		for i := 0; i < setupReps; i++ {
			if r != nil {
				r.close()
				r = nil
			}
			t0 := time.Now()
			var err error
			if m, err = servedMonitor(cfg); err != nil {
				return fmt.Errorf("load served model: %w", err)
			}
			if r, err = startRig(m, false); err != nil {
				return err
			}
			if refs, err = references(m, pl.scripts); err != nil {
				return fmt.Errorf("reference verdicts: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		res.metrics["setup_s"] = median(setups)
		return measureServe(ctx, o, p, pl, r, m, refs, tr, res)
	})
	if err != nil {
		return nil, err
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	return res, writeTrace(tr, o, res)
}

// measureServe runs the plan's phases against r and fills the metrics.
func measureServe(ctx context.Context, o options, p serveProfile, pl *plan, r *rig, m *monitor.MLMonitor, refs [][]serve.Verdict, tr *tracer, res *result) error {
	runPhase := func(snd *sender, ph *phase, abort bool, parent int) (phaseStats, time.Duration, error) {
		if err := ctx.Err(); err != nil {
			return phaseStats{}, 0, err
		}
		el, err := snd.run(ctx, ph, abort, parent)
		if err != nil {
			return phaseStats{}, 0, err
		}
		ps := summarise(ph, p.rows, el, p.limit)
		res.attempted += ps.sent
		res.failed += ps.failed
		res.phases = append(res.phases, ps.line(ph.name))
		return ps, el, nil
	}
	// runRef sends reference chunks and returns the median of their p50s
	// and every latency, send-to-done time and send lateness, pooled.
	runRef := func(snd *sender, ph *phase) (p50 float64, pooled phaseStats, err error) {
		ps, _, err := runPhase(snd, ph, false, 0)
		return quantile(ps.lat, 0.5), ps, err
	}
	snd := newSender(r, p, refs, o.workers)
	defer snd.close()

	// In a traced run backfill passes alternate untraced and traced, so the
	// ratio of their medians is the tracing overhead.
	var passes, traced, p50s []float64
	var pooled phaseStats
	before := r.srv.BatcherStats()
	mem := startMem()
	for i := range pl.backfill {
		snd.tr = nil
		parent := 0
		if o.trace && i%2 == 1 {
			snd.tr, parent = tr, tr.begin(0, "pass")
		}
		_, el, err := runPhase(snd, pl.backfill[i], false, parent)
		tr.end(parent)
		if err != nil {
			return err
		}
		if snd.tr != nil {
			traced = append(traced, el.Seconds())
		} else {
			passes = append(passes, el.Seconds())
		}
		snd.tr = nil
		p50, ps, err := runRef(snd, pl.ref[i])
		if err != nil {
			return err
		}
		p50s = append(p50s, p50)
		pooled.lat = append(pooled.lat, ps.lat...)
		pooled.rtt = append(pooled.rtt, ps.rtt...)
		pooled.lag = append(pooled.lag, ps.lag...)
	}
	alloc, gcs, pause := mem.stop()
	after := r.srv.BatcherStats()

	rateMax := 0.0
	for _, ph := range pl.ladder {
		ps, _, err := runPhase(snd, ph, true, 0)
		if err != nil {
			return err
		}
		if ps.failed > 0 || ps.backlog || quantile(ps.lat, 0.99) > millis(p.limit) {
			break
		}
		rateMax = ps.samplesPerS
	}

	mt := res.metrics
	if !o.trace {
		mt["run_s"] = median(passes)
		mt["p50_ms"] = median(p50s)
		return nil
	}
	if flushes := float64(after.Flushes - before.Flushes); flushes > 0 {
		mt["serve.batch_occupancy"] = float64(after.FusedRows-before.FusedRows) / flushes
		mt["serve.deadline_flush_ratio"] = float64(after.DeadlineFlushes-before.DeadlineFlushes) / flushes
	}
	mt["serve.p99_ms"] = quantile(pooled.lat, 0.99)
	mt["serve.rate_max"] = rateMax
	mt["serve.rtt_p50_ms"] = quantile(pooled.rtt, 0.5)
	mt["serve.gen_lag_ms"] = quantile(pooled.lag, 0.99)
	mt["serve.rejected"] = float64(r.srv.BatcherStats().Rejected)
	mt["serve.session_create_ms"] = median(snd.creates)
	mt["runtime.alloc_mb"], mt["runtime.gc_cycles"], mt["runtime.gc_pause_ms"] = alloc, gcs, pause
	if u := median(passes); u > 0 {
		mt["trace.overhead_ratio"] = median(traced) / u
	}
	mt["trace.coverage_ratio"] = tr.coverage("pass")

	// The reference chunks again against a Bypass server: p50_ms minus
	// this p50 is the dispatcher's cost.
	br, err := startRig(m, true)
	if err != nil {
		return fmt.Errorf("bypass server: %w", err)
	}
	defer br.close()
	bsnd := newSender(br, p, refs, o.workers)
	defer bsnd.close()
	var bypass []float64
	for _, ph := range pl.bypass {
		p50, _, err := runRef(bsnd, ph)
		if err != nil {
			return err
		}
		bypass = append(bypass, p50)
	}
	mt["serve.bypass_p50_ms"] = median(bypass)
	return serveProbes(m, tr, mt)
}
