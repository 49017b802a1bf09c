package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
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
func testMonitor(t testing.TB) *monitor.MLMonitor {
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

// post sends one POST straight through srv.ServeHTTP.
func post(srv http.Handler, path, ctype string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func createSession(t testing.TB, srv http.Handler) string {
	t.Helper()
	rec := post(srv, "/v1/sessions", "application/json", []byte("{}"))
	var out struct{ ID string }
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	return out.ID
}

func samplesJSON(t testing.TB, samples []serve.Sample) []byte {
	t.Helper()
	b, err := json.Marshal(samples)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func samplesNDJSON(t testing.TB, samples []serve.Sample) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, smp := range samples {
		if err := enc.Encode(smp); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// Bodies whose readings overflow: ±1.7e308 overflows the derived
// features, and 1e300 stays finite in float64 but not in the float32
// kernel. Ingest refuses both before assembling a row.
var (
	overflowBody = []byte(`[{"cgm":1.7e308,"iob":1.7e308,"rate":1.7e308},{"cgm":-1.7e308,"iob":-1.7e308,"rate":-1.7e308}]`)
	extremeBody  = []byte(`[{"cgm":1e300,"iob":1,"rate":1}]`)
)

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

// digestLoad is the deterministic load fleet loadDigest drives.
func digestLoad(url, mode string) serve.LoadConfig {
	return serve.LoadConfig{
		BaseURL:           url,
		Sessions:          5,
		SamplesPerSession: 20,
		Mode:              mode,
		Seed:              99,
		Session: serve.SessionConfig{
			DebounceM: 2, DebounceN: 3,
			CUSUMK: 0.6, CUSUMH: 2,
		},
	}
}

// loadDigest runs the deterministic load fleet against a fresh server with
// the given config and returns the verdict digest.
func loadDigest(t *testing.T, serverCfg serve.Config, mode string) *serve.LoadResult {
	t.Helper()
	srv, ts := newTestServer(t, serverCfg)
	res, err := serve.RunLoad(context.Background(), digestLoad(ts.URL, mode))
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
		{"tiny-batches", serve.Config{Batcher: serve.BatcherConfig{MaxBatch: 3}}, "stream"},
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
	pad := func(n int) []byte { return bytes.Repeat([]byte("a"), n) }

	keep := createSession(t, srv)
	victim := createSession(t, srv)
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
		if rec := post(srv, tc.path, tc.ctype, tc.body); rec.Code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, rec.Code, rec.Body, tc.want)
		}
	}

	body, err := json.Marshal(script)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(srv, "/v1/sessions/"+keep+"/samples", "application/json", body)
	var out struct{ Verdicts []serve.Verdict }
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil || len(out.Verdicts) != 1 {
		t.Fatalf("append after refused bodies: %d %s, want one verdict", rec.Code, rec.Body)
	}
	createSession(t, srv)
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

// TestServerIngestIsAllOrNothing pins that a rejected upload leaves its
// session as it was: overflowing readings are refused with 400 naming the
// sample on both ingest paths, a block wider than the batcher queue with
// 413, and afterwards the session's verdicts equal those of a session that
// only ever saw the sane samples.
func TestServerIngestIsAllOrNothing(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Monitor:     testMonitor(t),
		Batcher:     serve.BatcherConfig{MaxBatch: 1, MaxQueue: 2},
		IdleTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	window := srv.Window()
	script := serve.Script(3, 0, window+4)
	hit, ref := createSession(t, srv), createSession(t, srv)
	appendTo := func(id string) string { return "/v1/sessions/" + id + "/samples" }
	warm := samplesJSON(t, script[:window-1])
	for _, id := range []string{hit, ref} {
		if rec := post(srv, appendTo(id), "application/json", warm); rec.Code != http.StatusOK {
			t.Fatalf("warmup: %d %s", rec.Code, rec.Body)
		}
	}
	first := fmt.Sprintf("sample %d ", window-1)
	for _, tc := range []struct {
		name, ctype string
		body        []byte
		want        int
		says        string
	}{
		{"overflowing readings", "application/json", overflowBody, http.StatusBadRequest, first},
		{"float32 overflow", "application/json", extremeBody, http.StatusBadRequest, first},
		{"overflowing ndjson chunk", "application/x-ndjson",
			samplesNDJSON(t, []serve.Sample{{CGM: 1.7e308, IOB: 1.7e308, Rate: 1.7e308}}), http.StatusBadRequest, first},
		{"block wider than the queue", "application/json", samplesJSON(t, script[window-1:window+2]), http.StatusRequestEntityTooLarge, "capacity"},
	} {
		rec := post(srv, appendTo(hit), tc.ctype, tc.body)
		if rec.Code != tc.want || !strings.Contains(rec.Body.String(), tc.says) {
			t.Errorf("%s: %d %s, want %d naming %q", tc.name, rec.Code, rec.Body, tc.want, tc.says)
		}
	}
	for i := window - 1; i < len(script); i++ {
		one := samplesJSON(t, script[i:i+1])
		got := post(srv, appendTo(hit), "application/json", one)
		want := post(srv, appendTo(ref), "application/json", one)
		if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
			t.Fatalf("sample %d after rejected uploads: %d %s, want %s", i, got.Code, got.Body, want.Body)
		}
	}
}

// TestServerRejectsAbsurdReadingDuringWarmup pins that an absurd raw
// reading is refused when it arrives, even during warmup when no row is
// assembled yet: a 1.7e308 CGM among the warmup uploads gets a 400 naming
// it, and the 13 sane single samples after the warmup each get the verdict
// a session that never saw the bad reading gets. Accepted, the reading
// would sit in every later window and turn each upload into a 400.
func TestServerRejectsAbsurdReadingDuringWarmup(t *testing.T) {
	srv, err := serve.New(serve.Config{Monitor: testMonitor(t), IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	warmup := srv.Window() - 1
	script := serve.Script(5, 0, warmup+13)
	hit, ref := createSession(t, srv), createSession(t, srv)
	appendTo := func(id string) string { return "/v1/sessions/" + id + "/samples" }
	for i, smp := range script[:warmup] {
		if i == 2 {
			bad := smp
			bad.CGM = 1.7e308
			rec := post(srv, appendTo(hit), "application/json", samplesJSON(t, []serve.Sample{bad}))
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "sample 2 ") {
				t.Fatalf("absurd warmup reading: %d %s, want 400 naming sample 2", rec.Code, rec.Body)
			}
		}
		for _, id := range []string{hit, ref} {
			if rec := post(srv, appendTo(id), "application/json", samplesJSON(t, script[i:i+1])); rec.Code != http.StatusOK {
				t.Fatalf("warmup sample %d: %d %s", i, rec.Code, rec.Body)
			}
		}
	}
	verdicts := 0
	for i := warmup; i < len(script); i++ {
		one := samplesJSON(t, script[i:i+1])
		got := post(srv, appendTo(hit), "application/json", one)
		want := post(srv, appendTo(ref), "application/json", one)
		var out struct{ Verdicts []serve.Verdict }
		if got.Code != http.StatusOK || got.Body.String() != want.Body.String() || json.Unmarshal(got.Body.Bytes(), &out) != nil {
			t.Fatalf("sample %d after the absurd reading: %d %s, want %s", i, got.Code, got.Body, want.Body)
		}
		verdicts += len(out.Verdicts)
	}
	if verdicts != 13 {
		t.Fatalf("%d verdicts for 13 sane samples after warmup, want 13", verdicts)
	}
}

// TestServeOverflowingSessionLeavesOthersAlone: while one session keeps
// uploading overflowing readings (refused at ingest, before the batcher),
// the deterministic fleet on the same server gets exactly its clean-run
// verdicts.
func TestServeOverflowingSessionLeavesOthersAlone(t *testing.T) {
	want := loadDigest(t, serve.Config{}, "stream").Digest
	srv, ts := newTestServer(t, serve.Config{})
	bad := createSession(t, srv)
	url := ts.URL + "/v1/sessions/" + bad + "/samples"
	if rec := post(srv, "/v1/sessions/"+bad+"/samples", "application/json", samplesJSON(t, serve.Script(3, 0, srv.Window()-1))); rec.Code != http.StatusOK {
		t.Fatalf("warmup: %d %s", rec.Code, rec.Body)
	}
	stop := make(chan struct{})
	statuses := make(chan []int, 1)
	go func() {
		var got []int
		defer func() { statuses <- got }()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			body := overflowBody
			if i%2 == 1 {
				body = extremeBody
			}
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				got = append(got, -1)
				return
			}
			resp.Body.Close()
			got = append(got, resp.StatusCode)
		}
	}()
	res, err := serve.RunLoad(context.Background(), digestLoad(ts.URL, "stream"))
	close(stop)
	got := <-statuses
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != want {
		t.Fatalf("fleet digest %s beside an overflowing session, want %s", res.Digest, want)
	}
	if len(got) == 0 {
		t.Fatal("the overflowing session sent nothing")
	}
	for _, code := range got {
		if code != http.StatusBadRequest {
			t.Fatalf("overflowing upload statuses %v, want only 400", got)
		}
	}
}

// FuzzIngest drives arbitrary JSON-append and NDJSON bodies into a warmed
// session through ServeHTTP. The server must not panic, must answer 200,
// 400 or 413, and every 200 body must decode with finite confidences.
func FuzzIngest(f *testing.F) {
	srv, err := serve.New(serve.Config{Monitor: testMonitor(f), IdleTimeout: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	window := srv.Window()
	script := serve.Script(3, 0, window+8)
	warm := samplesJSON(f, script[:window-1])
	f.Add(samplesJSON(f, script[window-1:]), false)
	f.Add(samplesNDJSON(f, script[window-1:]), true)
	f.Add(overflowBody, false)
	f.Add(extremeBody, false)
	f.Add([]byte("{\"cgm\":1e300,\"iob\":1,\"rate\":1}\n"), true)
	f.Add([]byte(`[{"cgm":120,"iob":1,"rate":1,"action":99,"carbs":-5}]`), false)
	f.Add([]byte(`[{"cgm":`), false)
	f.Add([]byte("{}\n\n{\"cgm\":\"x\"}\n"), true)
	f.Fuzz(func(t *testing.T, body []byte, ndjson bool) {
		id := createSession(t, srv)
		defer srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodDelete, "/v1/sessions/"+id, nil))
		path := "/v1/sessions/" + id + "/samples"
		if rec := post(srv, path, "application/json", warm); rec.Code != http.StatusOK {
			t.Fatalf("warmup: %d %s", rec.Code, rec.Body)
		}
		ctype := "application/json"
		if ndjson {
			ctype = "application/x-ndjson"
		}
		rec := post(srv, path, ctype, body)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if ndjson {
			var out struct{ Accepted, Verdicts int }
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("200 body %q: %v", rec.Body, err)
			}
			return
		}
		var out struct {
			Accepted int
			Verdicts []serve.Verdict
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("200 body %q: %v", rec.Body, err)
		}
		for _, v := range out.Verdicts {
			if math.IsNaN(v.Conf) || math.IsInf(v.Conf, 0) {
				t.Fatalf("verdict %+v has a non-finite confidence", v)
			}
		}
	})
}
