package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"neurometer/internal/dse"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/rstore"
)

// openStore opens a result store over dir, as -result-store does.
func openStore(t *testing.T, dir string) *rstore.Cache {
	t.Helper()
	st, err := rstore.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return rstore.NewCache(st)
}

// TestStudyJobLifecycle submits an async study, polls it to completion, and
// checks idempotent resubmission returns the same job.
func TestStudyJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Results: openStore(t, t.TempDir())})

	status, _, body := doJSON(t, "POST", ts.URL+"/v1/dse/study", tinyStudyBody(""))
	if status != 202 {
		t.Fatalf("submit: %d %v, want 202", status, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("submit returned no job id: %v", body)
	}

	// Resubmitting the identical spec is idempotent: same id, no new job.
	status, _, body = doJSON(t, "POST", ts.URL+"/v1/dse/study", tinyStudyBody(""))
	if status != 202 || body["id"] != id {
		t.Fatalf("resubmit: %d id=%v, want 202 id=%s", status, body["id"], id)
	}

	var final map[string]any
	waitFor(t, 30*time.Second, func() bool {
		_, _, final = doJSON(t, "GET", ts.URL+"/v1/dse/study/"+id, "")
		st, _ := final["state"].(string)
		return st == JobDone || st == JobFailed
	})
	if final["state"] != JobDone {
		t.Fatalf("job finished as %v: %v", final["state"], final)
	}
	csv, _ := final["csv"].(string)
	if !strings.HasPrefix(csv, "point,") {
		t.Fatalf("done job has no CSV: %v", final)
	}
	if final["rows"] == nil {
		t.Fatal("done job has no rows")
	}

	// Unknown ids map to the taxonomy, not a panic or a 500.
	status, _, body = doJSON(t, "GET", ts.URL+"/v1/dse/study/nope", "")
	if status != 400 || body["kind"] != "invalid-config" {
		t.Fatalf("unknown id: %d %v", status, body)
	}
}

// TestStudyJobQueueBound checks MaxQueuedJobs sheds excess submissions.
func TestStudyJobQueueBound(t *testing.T) {
	defer guard.DisarmAll()
	_, ts := newTestServer(t, Config{StudyLimit: 1, MaxQueuedJobs: 1})

	// Park the single run slot on a slow study (the delay is ctx-aware, so
	// the cleanup drain cuts it short).
	guard.Arm("dse.candidate", guard.Fault{Delay: 30 * time.Second, Count: 1})
	if status, _, _ := doJSON(t, "POST", ts.URL+"/v1/dse/study", tinyStudyBody("")); status != 202 {
		t.Fatalf("first submit: %d", status)
	}
	// A different spec (same constraints, different batch) queues (1 queued
	// job allowed)…
	if status, _, _ := doJSON(t, "POST", ts.URL+"/v1/dse/study", `{"batch":4,"models":["alexnet"],"x_choices":[8,64],"n_choices":[2,4],"max_tiles":32}`); status != 202 {
		t.Fatalf("second submit: %d", status)
	}
	// …and a third distinct spec sheds with 429 + Retry-After.
	status, hdr, body := doJSON(t, "POST", ts.URL+"/v1/dse/study", `{"batch":2,"models":["alexnet"],"x_choices":[8,64],"n_choices":[2,4],"max_tiles":32}`)
	if status != 429 {
		t.Fatalf("third submit: %d %v, want 429", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed study without Retry-After")
	}
}

// TestJobIDPinned: a job ID is a hash of the study fingerprint text, so
// any drift in that text — a reworded prefix, a reordered field — would
// silently orphan every client holding an ID. The literal may change only
// with a deliberate, documented change to the fingerprint text.
func TestJobIDPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := doJSON(t, "POST", ts.URL+"/v1/dse/study", tinyStudyBody(""))
	if status != 202 {
		t.Fatalf("submit: %d %v", status, body)
	}
	if id, want := body["id"], "4779c4927b95a626"; id != want {
		t.Fatalf("job id for the tiny study = %v, want %s", id, want)
	}
}

// TestJobDrainRestartResume is the crash-safety acceptance test: a study
// job is interrupted mid-run by Shutdown (the SIGTERM path), and a fresh
// Server sharing the result store resumes the same job id to a
// byte-identical result, taking exactly the candidates completed before
// the drain from the store.
func TestJobDrainRestartResume(t *testing.T) {
	defer guard.DisarmAll()
	storeDir := t.TempDir()

	// Reference: the same study run uninterrupted on an isolated server.
	_, tsRef := newTestServer(t, Config{})
	status, _, ref := doJSON(t, "POST", tsRef.URL+"/v1/dse/study", tinyStudyBody(`"wait":true`))
	if status != 200 || ref["state"] != JobDone {
		t.Fatalf("reference run: %d %v", status, ref)
	}
	wantCSV, _ := ref["csv"].(string)
	wantID, _ := ref["id"].(string)
	if wantCSV == "" {
		t.Fatal("reference run produced no CSV")
	}

	// First incarnation: submit async, then drain once the third candidate
	// is reached. The armed hook parks that candidate until the drain is
	// underway and its context cancellation has landed, so the pool stops
	// deterministically with two candidates stored.
	s1 := New(Config{Results: openStore(t, storeDir), Workers: 1})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	reached := make(chan struct{})
	var once sync.Once
	guard.Arm("dse.candidate", guard.Fault{
		Skip: 2, Count: 1,
		OnHit: func() {
			once.Do(func() { close(reached) })
			<-s1.draining                      // park until the SIGTERM-equivalent drain begins
			time.Sleep(100 * time.Millisecond) // let the drain cancel the job context
		},
	})
	status, _, body := doJSON(t, "POST", ts1.URL+"/v1/dse/study", tinyStudyBody(""))
	if status != 202 {
		t.Fatalf("submit: %d %v", status, body)
	}
	id, _ := body["id"].(string)
	if id != wantID {
		t.Fatalf("job id %q differs from reference %q — fingerprint identity broken", id, wantID)
	}

	<-reached
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	guard.DisarmAll()

	if j, ok := s1.jobs.get(id); !ok {
		t.Fatal("job vanished during drain")
	} else if st := j.status(); st.State != JobInterrupted {
		t.Fatalf("job state after drain = %q, want %q", st.State, JobInterrupted)
	}

	// Second incarnation: same store, same spec. The synchronous
	// resubmission finds the two completed candidates in the store and
	// must reproduce the reference output byte for byte.
	_, ts2 := newTestServer(t, Config{Results: openStore(t, storeDir), Workers: 1})
	fromStore := obs.Default().Snapshot().Counters["dse.candidates_from_store"]
	status, _, body = doJSON(t, "POST", ts2.URL+"/v1/dse/study", tinyStudyBody(`"wait":true`))
	if status != 200 || body["state"] != JobDone {
		t.Fatalf("resumed run: %d %v", status, body)
	}
	if d := obs.Default().Snapshot().Counters["dse.candidates_from_store"] - fromStore; d != 2 {
		t.Fatalf("resumed job took %d candidates from the store, want the 2 completed before the drain", d)
	}
	if body["id"] != id {
		t.Fatalf("resumed job id %v, want %s", body["id"], id)
	}
	if got, _ := body["csv"].(string); got != wantCSV {
		t.Fatalf("resumed output differs from uninterrupted run:\n got: %s\nwant: %s", got, wantCSV)
	}
}

// TestSubmitWhileDrainingSheds: once Shutdown begins, new study jobs are
// turned away instead of being accepted and immediately interrupted.
func TestSubmitWhileDrainingSheds(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	spec, err := StudyRequest{Batch: 8, Models: []string{"alexnet"},
		XChoices: []int{8, 64}, NChoices: []int{2, 4}, MaxTiles: 32}.spec()
	if err != nil {
		t.Fatal(err)
	}
	study, err := dse.NewStudy(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.jobs.submit(study, dse.Hardening{Workers: 1}); err == nil {
		t.Fatal("submit during drain succeeded, want shed")
	} else if !strings.Contains(err.Error(), "draining") {
		t.Fatalf("submit during drain: %v", err)
	}
}

// TestConcurrentSoak hammers every endpoint at once — race-enabled in CI —
// and requires each response to be a documented status, never a hang or an
// undocumented 5xx.
func TestConcurrentSoak(t *testing.T) {
	_, ts := newTestServer(t, Config{
		BuildLimit:       2,
		SimulateLimit:    2,
		QueueDepth:       2,
		AdmissionTimeout: 200 * time.Millisecond,
		Results:          openStore(t, t.TempDir()),
	})

	reqs := []struct{ method, path, body string }{
		{"POST", "/v1/chip/build", `{"preset":"tpuv1"}`},
		{"POST", "/v1/chip/build", `{"preset":"tpuv2"}`},
		{"POST", "/v1/perfsim/simulate", `{"preset":"tpuv1","workload":"alexnet","batch":4}`},
		{"POST", "/v1/perfsim/simulate", `{"preset":"eyeriss","workload":"mobilenet"}`},
		{"GET", "/healthz", ""},
		{"GET", "/readyz", ""},
		{"GET", "/metricz", ""},
		{"POST", "/v1/chip/build", `{"preset":"bogus"}`},
	}
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, len(reqs)*rounds)
	for r := 0; r < rounds; r++ {
		for _, rq := range reqs {
			wg.Add(1)
			go func(method, path, body string) {
				defer wg.Done()
				status, _, _ := doJSON(t, method, ts.URL+path, body)
				switch status {
				case 200, 202, 400, 422, 429:
				default:
					errs <- fmt.Errorf("%s %s: undocumented status %d", method, path, status)
				}
			}(rq.method, rq.path, rq.body)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
