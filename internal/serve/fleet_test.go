package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"neurometer/internal/chaos/invariants"
	"neurometer/internal/dse"
	"neurometer/internal/fleet"
	"neurometer/internal/graph"
	"neurometer/internal/perfsim"
	"neurometer/internal/workloads"
)

// tinyShard builds a small real shard (two candidates, one workload) for
// exercising /v1/worker/eval.
func tinyShard(t *testing.T) dse.Shard {
	t.Helper()
	cs := dse.TableI()
	cs.XChoices = []int{64}
	cs.NChoices = []int{2}
	cs.MaxTiles = 16
	cands := dse.EnumerateParallel(context.Background(), cs, 1)
	if len(cands) < 2 {
		t.Fatalf("tiny constraint set enumerated %d candidates, want >= 2", len(cands))
	}
	g, err := workloads.ByName("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	return dse.BuildShard(cands[:2], []int{0, 1}, []*graph.Graph{g},
		dse.BatchSpec{Fixed: 8}, perfsim.DefaultOptions(), dse.Hardening{})
}

// TestWorkerEvalEndpoint: the worker endpoint evaluates a shard and returns
// outcomes identical (through JSON) to an in-process dse.EvalShard.
func TestWorkerEvalEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sh := tinyShard(t)

	want, err := dse.EvalShard(context.Background(), sh, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(dse.ShardResult{Outcomes: want})
	if err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(sh)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/worker/eval", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("worker eval: status %d", resp.StatusCode)
	}
	var got dse.ShardResult
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("worker outcomes differ from local EvalShard:\n--- local\n%s\n--- worker\n%s",
			wantJSON, gotJSON)
	}

	// A malformed shard is the coordinator's bug: 400, not retryable.
	status, _, errBody := doJSON(t, "POST", ts.URL+"/v1/worker/eval", `{"cands":[]}`)
	if status != 400 || errBody["kind"] != "invalid-config" {
		t.Fatalf("empty shard: %d %v", status, errBody)
	}
}

// TestFleetStudyThroughServeByteIdentical is the full distributed loop: a
// coordinator serve process dispatching study shards over HTTP to worker
// serve processes — one of which drops dead mid-study — must produce the
// same CSV as a plain single-process run.
func TestFleetStudyThroughServeByteIdentical(t *testing.T) {
	// The serial reference.
	_, plain := newTestServer(t, Config{})
	status, _, ref := doJSON(t, "POST", plain.URL+"/v1/dse/study", tinyStudyBody(`"wait":true`))
	if status != 200 || ref["csv"] == nil {
		t.Fatalf("serial study: %d %v", status, ref)
	}

	// Two workers; the first one's connections start dying after its
	// second request.
	worker1, _ := newTestServer(t, Config{})
	var served atomic.Int64
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 2 {
			panic(http.ErrAbortHandler)
		}
		worker1.Handler().ServeHTTP(w, r)
	}))
	defer dying.Close()
	_, w2 := newTestServer(t, Config{})

	coord, err := fleet.New(fleet.Config{
		Workers:     []string{dying.URL, w2.URL},
		ShardSize:   1,
		LeaseTTL:    30 * time.Second,
		HedgeAfter:  -1,
		MaxAttempts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, cs := newTestServer(t, Config{Dispatch: coord.Dispatch})
	status, _, got := doJSON(t, "POST", cs.URL+"/v1/dse/study", tinyStudyBody(`"wait":true`))
	if status != 200 || got["csv"] == nil {
		t.Fatalf("fleet study: %d %v", status, got)
	}
	if got["csv"] != ref["csv"] {
		t.Fatalf("fleet CSV differs from serial:\n--- serial\n%v\n--- fleet\n%v", ref["csv"], got["csv"])
	}
	if served.Load() < 2 {
		t.Fatalf("dying worker served %d requests; the test never exercised it", served.Load())
	}
	coord.Close()
	// The dispatch path must not strand inflight accounting, even with a
	// worker dying mid-study — the same invariant every chaos episode ends on.
	invariants.RequireGaugesDrained(t)
}

// TestBodyTooLarge: a request body past MaxBodyBytes is cut off with 413
// and kind=too-large, on every POST endpoint.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	big := `{"preset":"` + strings.Repeat("x", 256) + `"}`
	for _, ep := range []string{"/v1/chip/build", "/v1/perfsim/simulate", "/v1/dse/study", "/v1/worker/eval"} {
		status, _, body := doJSON(t, "POST", ts.URL+ep, big)
		if status != http.StatusRequestEntityTooLarge || body["kind"] != "too-large" {
			t.Errorf("%s oversized body: %d %v, want 413 kind=too-large", ep, status, body)
		}
	}
	// A body within the bound still works.
	status, _, body := doJSON(t, "POST", ts.URL+"/v1/chip/build", `{"preset":"tpuv1"}`)
	if status != 200 {
		t.Fatalf("small body after 413s: %d %v", status, body)
	}
}

// TestContentTypeChecked: a POST that declares a non-JSON Content-Type is
// rejected with 415; an absent Content-Type is tolerated.
func TestContentTypeChecked(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req, err := http.NewRequest("POST", ts.URL+"/v1/chip/build", strings.NewReader("preset=tpuv1"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	json.NewDecoder(resp.Body).Decode(&body)
	if resp.StatusCode != http.StatusUnsupportedMediaType || body["kind"] != "unsupported-media" {
		t.Fatalf("form post: %d %v, want 415 kind=unsupported-media", resp.StatusCode, body)
	}

	// JSON with a charset parameter is fine; so is no header at all
	// (doJSON never sets one and the suite's POSTs all pass).
	req, _ = http.NewRequest("POST", ts.URL+"/v1/chip/build", strings.NewReader(`{"preset":"tpuv1"}`))
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("json with charset: %d", resp2.StatusCode)
	}
}

// TestRetryAfterJitterBand: the Retry-After hint stays inside
// [admission, admission+jitter] seconds and actually dithers.
func TestRetryAfterJitterBand(t *testing.T) {
	s := New(Config{AdmissionTimeout: 2 * time.Second, RetryAfterJitter: 5})
	defer s.Shutdown(context.Background())
	const lo, hi = 2, 2 + 5
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		secs, err := strconv.Atoi(s.retryAfter())
		if err != nil {
			t.Fatal(err)
		}
		if secs < lo || secs > hi {
			t.Fatalf("Retry-After %d outside [%d, %d]", secs, lo, hi)
		}
		seen[secs] = true
	}
	if len(seen) < 2 {
		t.Fatalf("200 draws produced %d distinct Retry-After values, want jitter", len(seen))
	}

	// Jitter disabled: the historical fixed hint.
	s2 := New(Config{AdmissionTimeout: 2 * time.Second, RetryAfterJitter: -1})
	defer s2.Shutdown(context.Background())
	for i := 0; i < 20; i++ {
		if got := s2.retryAfter(); got != "2" {
			t.Fatalf("jitter disabled: Retry-After = %s, want 2", got)
		}
	}
}
