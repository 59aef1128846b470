package dse

import (
	"context"
	"encoding/json"
	"testing"

	"neurometer/internal/guard"
)

// wireDispatch returns a Hardening.Dispatch that does exactly what a fleet
// worker does — marshal the shard, unmarshal it in "another process",
// EvalShard, marshal the result, unmarshal it coordinator-side — and then
// reports the outcomes for the indices keep selects (nil = all). The double
// JSON round-trip is the point: it proves the wire encoding itself is
// byte-exact, not just the in-memory structs.
func wireDispatch(t *testing.T, keep func(i int) bool, reports *[]ShardOutcome) func(context.Context, Shard, func(ShardOutcome)) {
	t.Helper()
	return func(ctx context.Context, sh Shard, report func(ShardOutcome)) {
		b, err := json.Marshal(sh)
		if err != nil {
			t.Errorf("marshal shard: %v", err)
			return
		}
		var remote Shard
		if err := json.Unmarshal(b, &remote); err != nil {
			t.Errorf("unmarshal shard: %v", err)
			return
		}
		outs, err := EvalShard(ctx, remote, 1, nil)
		if err != nil {
			t.Errorf("EvalShard: %v", err)
			return
		}
		rb, err := json.Marshal(ShardResult{Outcomes: outs})
		if err != nil {
			t.Errorf("marshal result: %v", err)
			return
		}
		var res ShardResult
		if err := json.Unmarshal(rb, &res); err != nil {
			t.Errorf("unmarshal result: %v", err)
			return
		}
		for _, o := range res.Outcomes {
			if keep != nil && !keep(o.Index) {
				continue
			}
			if reports != nil {
				*reports = append(*reports, o)
			}
			report(o)
		}
	}
}

// TestShardDispatchByteIdentical is the core fleet determinism claim at the
// dse layer: a study whose candidates are all evaluated remotely — through
// a JSON round-trip of both the shard and its result — emits tables, CSV,
// and row JSON (exact to the float64 bit) identical to a plain serial run.
func TestShardDispatchByteIdentical(t *testing.T) {
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	run := func(dispatch func(context.Context, Shard, func(ShardOutcome))) ([]RuntimeRow, []byte) {
		rows, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt,
			Hardening{Workers: 1, Dispatch: dispatch})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return rows, b
	}

	want, wantJSON := run(nil)
	got, gotJSON := run(wireDispatch(t, nil, nil))

	if FormatRuntimeRows(got) != FormatRuntimeRows(want) {
		t.Fatalf("remote rows differ from serial:\n--- serial\n%s\n--- remote\n%s",
			FormatRuntimeRows(want), FormatRuntimeRows(got))
	}
	if RuntimeRowsCSV(got) != RuntimeRowsCSV(want) {
		t.Fatalf("remote CSV differs from serial")
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("remote row JSON differs from serial:\n--- serial\n%s\n--- remote\n%s",
			wantJSON, gotJSON)
	}
}

// TestShardDispatchPartialFallsBackLocal: a dispatcher that resolves only
// some candidates leaves the rest to the local pool, and the merged output
// is still byte-identical to serial — graceful degradation by construction.
func TestShardDispatchPartialFallsBackLocal(t *testing.T) {
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	want, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	var reported []ShardOutcome
	got, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{
		Workers:  1,
		Dispatch: wireDispatch(t, func(i int) bool { return i%2 == 0 }, &reported),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reported) == 0 || len(reported) == len(cands) {
		t.Fatalf("partial dispatch reported %d of %d candidates, want a strict subset", len(reported), len(cands))
	}
	if FormatRuntimeRows(got) != FormatRuntimeRows(want) {
		t.Fatalf("partial-dispatch rows differ from serial:\n--- serial\n%s\n--- got\n%s",
			FormatRuntimeRows(want), FormatRuntimeRows(got))
	}
}

// TestShardDispatchIgnoresDuplicatesAndBogusIndices: hedged dispatch can
// deliver the same outcome twice, and a buggy or malicious worker can report
// indices outside the study. The merge must take the first report for an
// index and drop the garbage, keeping output byte-identical.
func TestShardDispatchIgnoresDuplicatesAndBogusIndices(t *testing.T) {
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	want, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	dispatch := func(ctx context.Context, sh Shard, report func(ShardOutcome)) {
		outs, err := EvalShard(ctx, sh, 1, nil)
		if err != nil {
			t.Errorf("EvalShard: %v", err)
			return
		}
		report(ShardOutcome{Index: -5, Kind: "error", Err: "bogus"})
		report(ShardOutcome{Index: len(cands) + 3, Kind: "error", Err: "bogus"})
		for _, o := range outs {
			report(o)
			// Hedged duplicate: a conflicting second report for the same
			// index must lose to the first.
			report(ShardOutcome{Index: o.Index, Kind: "unavailable", Err: "late hedge"})
		}
	}
	got, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt,
		Hardening{Workers: 1, Dispatch: dispatch})
	if err != nil {
		t.Fatal(err)
	}
	if FormatRuntimeRows(got) != FormatRuntimeRows(want) {
		t.Fatalf("noisy dispatch changed the output:\n--- serial\n%s\n--- got\n%s",
			FormatRuntimeRows(want), FormatRuntimeRows(got))
	}
}

// TestShardRemoteFailureCheckpointByteIdentical: a candidate that fails on
// a worker crosses the wire as (kind, msg) and must surface at the
// coordinator byte-for-byte as it would have failing locally — the property
// guard.KindError exists for. The fault fires on every candidate, so the
// study fails with the joined per-candidate errors, whose text and kind
// must match between the local and the remote run.
func TestShardRemoteFailureCheckpointByteIdentical(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	run := func(name string, dispatch func(context.Context, Shard, func(ShardOutcome))) error {
		guard.Arm("dse.candidate", guard.Fault{Err: guard.Infeasible("injected: no feasible mapping")})
		defer guard.DisarmAll()
		rows, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt,
			Hardening{Workers: 1, Dispatch: dispatch})
		if err == nil || len(rows) != 0 {
			t.Fatalf("%s: got %d rows and err %v, want every candidate failed", name, len(rows), err)
		}
		return err
	}

	local := run("local", nil)
	remote := run("remote", wireDispatch(t, nil, nil))
	if remote.Error() != local.Error() {
		t.Fatalf("remote failure text differs from local:\n--- local\n%s\n--- remote\n%s",
			local, remote)
	}
	if guard.Kind(remote) != guard.Kind(local) || guard.Kind(local) != "infeasible" {
		t.Fatalf("failure kinds: local %q, remote %q, want infeasible", guard.Kind(local), guard.Kind(remote))
	}
}

// TestEvalShardRejectsMalformedShards: empty candidate sets, empty model
// sets and unknown workloads are coordinator bugs, not candidate failures —
// they must fail the whole shard with an invalid-config classification so
// the coordinator does not retry them forever.
func TestEvalShardRejectsMalformedShards(t *testing.T) {
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)
	good := BuildShard(cands, []int{0, 1}, models, spec, opt, Hardening{})

	cases := map[string]Shard{
		"no candidates":    {Spec: spec, Opt: opt, Models: good.Models},
		"no models":        {Spec: spec, Opt: opt, Cands: good.Cands},
		"unknown workload": {Spec: spec, Opt: opt, Models: []string{"not-a-net"}, Cands: good.Cands},
	}
	for name, sh := range cases {
		if _, err := EvalShard(context.Background(), sh, 1, nil); !errorsIsInvalid(err) {
			t.Errorf("%s: EvalShard = %v, want ErrInvalidConfig", name, err)
		}
	}
}

func errorsIsInvalid(err error) bool { return err != nil && guard.Kind(err) == "invalid-config" }

// TestBuildShardCarriesHardening: the worker must enforce the same
// per-candidate deadline and retry budget the coordinator would have
// enforced locally.
func TestBuildShardCarriesHardening(t *testing.T) {
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)
	sh := BuildShard(cands, []int{2, 0}, models, spec, opt, Hardening{
		CandidateTimeout: 1500e6, // 1.5s
		MaxRetries:       3,
	})
	if sh.CandidateTimeoutMS != 1500 || sh.MaxRetries != 3 {
		t.Fatalf("hardening knobs not carried: %+v", sh)
	}
	if len(sh.Cands) != 2 || sh.Cands[0].Index != 2 || sh.Cands[1].Index != 0 {
		t.Fatalf("indices not preserved: %+v", sh.Cands)
	}
	if sh.Cands[0].Point != cands[2].Point {
		t.Fatalf("point mismatch: %+v vs %+v", sh.Cands[0].Point, cands[2].Point)
	}
}
