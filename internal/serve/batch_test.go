package serve

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"neurometer/internal/guard"
	"neurometer/internal/workloads"
)

// The simulate-batch wire contract: one prepared workload across many
// candidate configs, per-candidate failures isolated inside a 200, and every
// successful entry identical to what the single-candidate endpoint returns
// for the same config.

func TestSimulateBatchMatchesSingleEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, _, batch := doJSON(t, "POST", ts.URL+"/v1/perfsim/simulate-batch",
		`{"workload":"resnet50","batch":8,"configs":[{"preset":"tpuv1"},{"preset":"tpuv2"},{"preset":"eyeriss"}]}`)
	if status != 200 {
		t.Fatalf("simulate-batch: %d %v", status, batch)
	}
	if failed, _ := batch["failed"].(float64); failed != 0 {
		t.Fatalf("failed = %v, want 0", batch["failed"])
	}
	entries, _ := batch["results"].([]any)
	if len(entries) != 3 {
		t.Fatalf("got %d results, want 3", len(entries))
	}
	for i, preset := range []string{"tpuv1", "tpuv2", "eyeriss"} {
		status, _, single := doJSON(t, "POST", ts.URL+"/v1/perfsim/simulate",
			`{"preset":"`+preset+`","workload":"resnet50","batch":8}`)
		if status != 200 {
			t.Fatalf("simulate %s: %d %v", preset, status, single)
		}
		entry, _ := entries[i].(map[string]any)
		got, _ := entry["result"].(map[string]any)
		if !reflect.DeepEqual(got, single) {
			t.Errorf("batch entry %d (%s) differs from single-candidate response:\nbatch:  %v\nsingle: %v",
				i, preset, got, single)
		}
	}
}

func TestSimulateBatchIsolatesCandidateFailures(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, _, body := doJSON(t, "POST", ts.URL+"/v1/perfsim/simulate-batch",
		`{"workload":"alexnet","batch":4,"configs":[{"preset":"tpuv1"},{"preset":"no-such-chip"},{"preset":"tpuv2"}]}`)
	if status != 200 {
		t.Fatalf("mixed batch must still be 200: %d %v", status, body)
	}
	if failed, _ := body["failed"].(float64); failed != 1 {
		t.Fatalf("failed = %v, want 1", body["failed"])
	}
	entries, _ := body["results"].([]any)
	if len(entries) != 3 {
		t.Fatalf("got %d results, want 3", len(entries))
	}
	bad, _ := entries[1].(map[string]any)
	if bad["kind"] != "invalid-config" || bad["result"] != nil {
		t.Fatalf("failed entry = %v, want kind=invalid-config and no result", bad)
	}
	for _, i := range []int{0, 2} {
		entry, _ := entries[i].(map[string]any)
		res, _ := entry["result"].(map[string]any)
		if fps, _ := res["fps"].(float64); fps <= 0 {
			t.Fatalf("entry %d fps = %v, want > 0 (neighbor of a failed candidate)", i, entry)
		}
	}
}

func TestSimulateBatchRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for name, body := range map[string]string{
		"no configs":       `{"workload":"alexnet","batch":4,"configs":[]}`,
		"unknown workload": `{"workload":"gpt7","batch":4,"configs":[{"preset":"tpuv1"}]}`,
		"bad batch":        `{"workload":"alexnet","batch":-1,"configs":[{"preset":"tpuv1"}]}`,
	} {
		status, _, resp := doJSON(t, "POST", ts.URL+"/v1/perfsim/simulate-batch", body)
		if status != 400 || resp["kind"] != "invalid-config" {
			t.Errorf("%s: %d %v, want 400 invalid-config", name, status, resp)
		}
	}

	// One config past the documented bound.
	cfgs := make([]string, maxBatchConfigs+1)
	for i := range cfgs {
		cfgs[i] = `{"preset":"tpuv1"}`
	}
	over := `{"workload":"alexnet","batch":4,"configs":[` + strings.Join(cfgs, ",") + `]}`
	if !json.Valid([]byte(over)) {
		t.Fatal("test body is not valid JSON")
	}
	status, _, resp := doJSON(t, "POST", ts.URL+"/v1/perfsim/simulate-batch", over)
	if status != 400 || resp["kind"] != "invalid-config" {
		t.Fatalf("oversized config list: %d %v, want 400 invalid-config", status, resp)
	}
}

// TestSimulateBatchIsolatesMidBatchFault: a fault partway through one
// candidate's layer walk fails that entry only; its neighbors, which reuse
// the same scratch result, are identical to a clean run.
func TestSimulateBatchIsolatesMidBatchFault(t *testing.T) {
	defer guard.DisarmAll()
	_, ts := newTestServer(t, Config{})
	const body = `{"workload":"alexnet","batch":4,"configs":[{"preset":"tpuv1"},{"preset":"tpuv2"},{"preset":"eyeriss"}]}`
	status, _, clean := doJSON(t, "POST", ts.URL+"/v1/perfsim/simulate-batch", body)
	if status != 200 || clean["failed"] != 0.0 {
		t.Fatalf("clean batch: %d %v", status, clean)
	}

	g, err := workloads.ByName("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	guard.Arm("perfsim.layer", guard.Fault{
		Skip:  len(g.Layers) + 3, // mid candidate 1
		Count: 1,
		Err:   errors.New("injected layer fault"),
	})
	status, _, faulted := doJSON(t, "POST", ts.URL+"/v1/perfsim/simulate-batch", body)
	if status != 200 || faulted["failed"] != 1.0 {
		t.Fatalf("faulted batch: %d %v, want 200 with one failed entry", status, faulted)
	}
	got, _ := faulted["results"].([]any)
	want, _ := clean["results"].([]any)
	if bad, _ := got[1].(map[string]any); bad["result"] != nil || !strings.Contains(bad["error"].(string), "injected layer fault") {
		t.Errorf("entry 1 = %v, want the injected fault", bad)
	}
	for _, i := range []int{0, 2} {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("entry %d disturbed by candidate 1's fault:\ngot  %v\nwant %v", i, got[i], want[i])
		}
	}
}

// TestSimulateBatchDeadlineFailsRequest: the ctx is checked between
// candidates, so a request deadline that expires mid-batch fails the whole
// call (504) instead of returning later entries as per-candidate timeouts.
func TestSimulateBatchDeadlineFailsRequest(t *testing.T) {
	defer guard.DisarmAll()
	_, ts := newTestServer(t, Config{})
	// Candidate 0 stalls at its simulate site until the deadline cuts it.
	guard.Arm("perfsim.simulate", guard.Fault{Count: 1, Delay: 5 * time.Second})
	status, _, resp := doJSON(t, "POST", ts.URL+"/v1/perfsim/simulate-batch?timeout_ms=50",
		`{"workload":"alexnet","batch":4,"configs":[{"preset":"tpuv1"},{"preset":"tpuv2"}]}`)
	if status != 504 || resp["kind"] != "timeout" {
		t.Fatalf("deadline mid-batch: %d %v, want 504 timeout", status, resp)
	}
}
