package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/monitor"
	"repro/internal/serve"
)

var testMon struct {
	once sync.Once
	m    *monitor.MLMonitor
	err  error
}

// testMonitor trains one small MLP monitor per test process.
func testMonitor(t *testing.T) *monitor.MLMonitor {
	t.Helper()
	testMon.once.Do(func() {
		ds, err := dataset.Generate(dataset.CampaignConfig{
			Simulator:          dataset.Glucosym,
			Profiles:           4,
			EpisodesPerProfile: 2,
			Steps:              80,
			Seed:               11,
		})
		if err != nil {
			testMon.err = err
			return
		}
		train, _, err := ds.Split(0.75)
		if err != nil {
			testMon.err = err
			return
		}
		testMon.m, testMon.err = monitor.Train(train, monitor.TrainConfig{
			Arch:    monitor.ArchMLP,
			Epochs:  6,
			Hidden1: 16,
			Hidden2: 8,
			Seed:    7,
		})
	})
	if testMon.err != nil {
		t.Fatal(testMon.err)
	}
	return testMon.m
}

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	cfg.Monitor = testMonitor(t)
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp, out
}

func TestServerSessionLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{})
	window := srv.Window()

	// Create.
	resp, body := postJSON(t, ts.URL+"/v1/sessions", serve.SessionConfig{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	var id string
	if err := json.Unmarshal(body["id"], &id); err != nil || id == "" {
		t.Fatalf("create returned id %q (%v)", body["id"], err)
	}

	// Append one window of samples: exactly one verdict, at seq window-1.
	script := serve.Script(3, 0, window+2)
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+id+"/samples", script[:window])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d", resp.StatusCode)
	}
	var verdicts []serve.Verdict
	if err := json.Unmarshal(body["verdicts"], &verdicts); err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 1 || verdicts[0].Seq != window-1 {
		t.Fatalf("verdicts = %+v, want one at seq %d", verdicts, window-1)
	}

	// Two more samples: two more verdicts, consecutive seqs.
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+id+"/samples", script[window:])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body["verdicts"], &verdicts); err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 2 || verdicts[0].Seq != window || verdicts[1].Seq != window+1 {
		t.Fatalf("verdicts = %+v, want seqs %d,%d", verdicts, window, window+1)
	}

	// Long-poll read from 0 returns all three.
	gresp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/verdicts?from=0")
	if err != nil {
		t.Fatal(err)
	}
	var poll struct {
		Verdicts []serve.Verdict `json:"verdicts"`
		Closed   bool            `json:"closed"`
	}
	if err := json.NewDecoder(gresp.Body).Decode(&poll); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if len(poll.Verdicts) != 3 || poll.Closed {
		t.Fatalf("poll = %+v, want 3 verdicts, open", poll)
	}

	// Stats sees the session.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Sessions int    `json:"sessions"`
		Samples  int    `json:"samples"`
		Verdicts int    `json:"verdicts"`
		Prec     string `json:"precision"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Sessions != 1 || stats.Samples != window+2 || stats.Verdicts != 3 || stats.Prec != "f32" {
		t.Fatalf("stats = %+v", stats)
	}

	// Delete; the session is gone.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sessions/"+id+"/samples", script[:1])
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append to deleted session: status %d, want 404", resp.StatusCode)
	}

	// Invalid wrapper config is rejected up front.
	resp, _ = postJSON(t, ts.URL+"/v1/sessions", serve.SessionConfig{DebounceM: 5, DebounceN: 2})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad debounce: status %d, want 400", resp.StatusCode)
	}
}

func TestServerMaxSessions(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxSessions: 1})
	resp, _ := postJSON(t, ts.URL+"/v1/sessions", serve.SessionConfig{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first create: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sessions", serve.SessionConfig{})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second create: status %d, want 429", resp.StatusCode)
	}
}

func TestServerIdleEviction(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{IdleTimeout: 50 * time.Millisecond})
	resp, body := postJSON(t, ts.URL+"/v1/sessions", serve.SessionConfig{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	var id string
	_ = json.Unmarshal(body["id"], &id)
	// Poll stats (which does not refresh session activity) until the
	// janitor evicts the idle session.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sresp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			Sessions int `json:"sessions"`
		}
		if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		sresp.Body.Close()
		if stats.Sessions == 0 {
			break // evicted
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle session %s never evicted", id)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// loadDigest runs the deterministic load fleet against a fresh server with
// the given config and returns the verdict digest.
func loadDigest(t *testing.T, serverCfg serve.Config, mode string) *serve.LoadResult {
	t.Helper()
	srv, ts := newTestServer(t, serverCfg)
	res, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		BaseURL:           ts.URL,
		Sessions:          5,
		SamplesPerSession: 20,
		Mode:              mode,
		Seed:              99,
		Session: serve.SessionConfig{
			DebounceM: 2, DebounceN: 3,
			CUSUMK: 0.6, CUSUMH: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantVerdicts := 5 * (20 - (srv.Window() - 1))
	if res.Verdicts != wantVerdicts {
		t.Fatalf("got %d verdicts, want %d", res.Verdicts, wantVerdicts)
	}
	return res
}

// TestServeDeterminism pins the acceptance criterion: for a fixed per-session
// input script, verdict streams are bit-identical regardless of transport
// mode, batch composition, or the batcher-bypass path — batching changes
// latency, never results.
func TestServeDeterminism(t *testing.T) {
	arms := []struct {
		name string
		cfg  serve.Config
		mode string
	}{
		{"batched-stream", serve.Config{}, "stream"},
		{"tiny-batches", serve.Config{Batcher: serve.BatcherConfig{MaxBatch: 3, MaxWait: 100 * time.Microsecond}}, "stream"},
		{"batched-request", serve.Config{}, "request"},
		{"bypass-request", serve.Config{Bypass: true}, "request"},
		{"bypass-stream", serve.Config{Bypass: true}, "stream"},
	}
	digests := make([]string, len(arms))
	for i, arm := range arms {
		res := loadDigest(t, arm.cfg, arm.mode)
		digests[i] = res.Digest
		t.Logf("%s: digest %s (p50 %v p99 %v)", arm.name, res.Digest[:12], res.P50, res.P99)
	}
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			t.Fatalf("verdicts diverge: %s (%s) vs %s (%s)",
				arms[0].name, digests[0], arms[i].name, digests[i])
		}
	}
}

// TestServeDeterminismF64 pins the same contract for the f64 escape hatch.
func TestServeDeterminismF64(t *testing.T) {
	a := loadDigest(t, serve.Config{Precision: monitor.F64}, "stream")
	b := loadDigest(t, serve.Config{Precision: monitor.F64, Bypass: true}, "request")
	if a.Digest != b.Digest {
		t.Fatalf("f64 batched %s vs bypass %s", a.Digest, b.Digest)
	}
}

// TestServeBatcherFusion sanity-checks that concurrent streaming sessions
// actually fuse: with 8 sessions in flight, mean occupancy must exceed one
// row per flush.
func TestServeBatcherFusion(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{})
	res, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		BaseURL:           ts.URL,
		Sessions:          8,
		SamplesPerSession: 40,
		Mode:              "stream",
		Seed:              5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := srv.BatcherStats()
	if st.FusedRows != int64(res.Verdicts) {
		t.Fatalf("fused %d rows for %d verdicts", st.FusedRows, res.Verdicts)
	}
	if st.Occupancy() <= 1 {
		t.Fatalf("occupancy %.2f: no cross-session fusion (stats %+v)", st.Occupancy(), st)
	}
	t.Logf("occupancy %.2f over %d flushes", st.Occupancy(), st.Flushes)
}

// TestServerBodyCaps pins the request size caps: an oversize session
// config, JSON append or NDJSON line is refused with 413, a malformed small
// body still gets 400, and a session opened before the attempts keeps
// serving verdicts afterwards.
func TestServerBodyCaps(t *testing.T) {
	srv, err := serve.New(serve.Config{Monitor: testMonitor(t), IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	do := func(path, ctype string, body []byte) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	create := func() string {
		t.Helper()
		rec := do("/v1/sessions", "application/json", []byte("{}"))
		var out struct{ ID string }
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
			t.Fatalf("create: %d %s", rec.Code, rec.Body)
		}
		return out.ID
	}
	pad := func(n int) []byte { return bytes.Repeat([]byte("a"), n) }

	keep := create()
	victim := create()
	window := srv.Window()
	script := serve.Script(3, 0, window)
	line, err := json.Marshal(script[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path, ctype string
		body              []byte
		want              int
	}{
		{"config over cap", "/v1/sessions", "application/json",
			append(append([]byte(`{"pad":"`), pad(65<<10)...), `"}`...), http.StatusRequestEntityTooLarge},
		{"malformed config", "/v1/sessions", "application/json", []byte(`{"debounce_m":`), http.StatusBadRequest},
		{"append over cap", "/v1/sessions/" + victim + "/samples", "application/json",
			append(append([]byte(`[{"pad":"`), pad(8<<20)...), `"}]`...), http.StatusRequestEntityTooLarge},
		{"ndjson line over cap", "/v1/sessions/" + victim + "/samples", "application/x-ndjson",
			append(append(append(line, '\n'), pad(65<<10)...), '\n'), http.StatusRequestEntityTooLarge},
	} {
		if rec := do(tc.path, tc.ctype, tc.body); rec.Code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, rec.Code, rec.Body, tc.want)
		}
	}

	body, err := json.Marshal(script)
	if err != nil {
		t.Fatal(err)
	}
	rec := do("/v1/sessions/"+keep+"/samples", "application/json", body)
	var out struct{ Verdicts []serve.Verdict }
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil || len(out.Verdicts) != 1 {
		t.Fatalf("append after refused bodies: %d %s, want one verdict", rec.Code, rec.Body)
	}
	create()
}

func TestServerRejectsBadConfig(t *testing.T) {
	if _, err := serve.New(serve.Config{}); err == nil {
		t.Fatal("want error for missing monitor")
	}
	if _, err := serve.New(serve.Config{Monitor: testMonitor(t), Precision: "f16"}); err == nil {
		t.Fatal("want error for unknown precision")
	}
	if _, err := serve.New(serve.Config{Monitor: testMonitor(t), Session: serve.SessionConfig{DebounceM: 3, DebounceN: 1}}); err == nil {
		t.Fatal("want error for invalid default debounce")
	}
}
