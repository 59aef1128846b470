package dse

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/perfsim"
	"neurometer/internal/rstore"
	"neurometer/internal/workloads"
)

// studyFixture returns a small candidate set and workload for fast
// hardening tests: three feasible sweep points and AlexNet only.
func studyFixture(t *testing.T) ([]Candidate, BatchSpec, perfsim.Options) {
	t.Helper()
	cands := []Candidate{
		findCand(t, Point{X: 64, N: 2, Tx: 2, Ty: 4}),
		findCand(t, Point{X: 64, N: 4, Tx: 1, Ty: 2}),
		findCand(t, Point{X: 8, N: 4, Tx: 4, Ty: 8}),
	}
	return cands, BatchSpec{Fixed: 8}, perfsim.DefaultOptions()
}

func alexnet(t *testing.T) []*graph.Graph {
	t.Helper()
	g, err := workloads.ByName("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	return []*graph.Graph{g}
}

func TestRuntimeStudySkipsPanickingCandidate(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	// The second candidate's simulation panics; the sweep must survive
	// and deliver the other two rows.
	disarm := guard.Arm("perfsim.simulate", guard.Fault{Skip: 1, Count: 1, Panic: true})
	defer disarm()

	rows, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (panicking candidate skipped)", len(rows))
	}
	for _, r := range rows {
		if r.Point == cands[1].Point {
			t.Fatalf("panicking candidate %s must not produce a row", r.Point)
		}
	}
}

func TestRuntimeStudyTimeoutClassifiedAndRetried(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	// Candidate 1's first layer stalls far past the 30ms deadline, every
	// attempt. With one retry allowed the fault fires twice, then the
	// candidate fails with ErrTimeout and the sweep continues.
	hits := 0
	disarm := guard.Arm("perfsim.simulate", guard.Fault{
		Delay: 10 * time.Second, OnHit: func() { hits++ },
	})
	defer disarm()

	h := Hardening{CandidateTimeout: 30 * time.Millisecond, MaxRetries: 1}
	rows, err := RuntimeStudyHardened(context.Background(), cands[:1], models, spec, opt, h)
	if err == nil {
		t.Fatal("want all-candidates-failed error")
	}
	if !errors.Is(err, guard.ErrTimeout) {
		t.Fatalf("error %v must wrap ErrTimeout", err)
	}
	if len(rows) != 0 {
		t.Fatalf("timed-out candidate produced %d rows", len(rows))
	}
	if hits != 2 {
		t.Fatalf("fault fired %d times, want 2 (initial attempt + 1 retry)", hits)
	}
}

func TestRuntimeStudyRetrySucceedsAfterTransientTimeout(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	// The fault stalls only the first attempt (Count: 1); the retry runs
	// clean and the candidate must deliver its row.
	disarm := guard.Arm("perfsim.simulate", guard.Fault{Count: 1, Delay: 10 * time.Second})
	defer disarm()

	h := Hardening{CandidateTimeout: 30 * time.Millisecond, MaxRetries: 2}
	rows, err := RuntimeStudyHardened(context.Background(), cands[:1], models, spec, opt, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
}

func TestRuntimeStudyRejectsNaNRows(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	// Corrupt candidate 0's achieved TOPS into NaN: the row must be
	// rejected with ErrNonFinite, never reaching the output.
	disarm := guard.Arm("perfsim.achieved_tops", guard.Fault{Count: 1, NaN: true})
	defer disarm()

	rows, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.AchievedTOPS) || math.IsNaN(r.TOPSPerWatt) {
			t.Fatalf("NaN leaked into row %s", r.Point)
		}
	}
}

func TestRuntimeStudyCancellationReturnsPartial(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	// Cancel the sweep as candidate 1 starts: candidate 0's row survives
	// and the error is the classified cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disarm := guard.Arm("dse.candidate", guard.Fault{Skip: 1, OnHit: cancel})
	defer disarm()

	rows, err := RuntimeStudyHardened(ctx, cands, models, spec, opt, Hardening{})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("error %v must wrap ErrCanceled", err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1 completed before cancellation", len(rows))
	}
}

func TestCheckpointResumeIsByteIdentical(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)
	fp := StudyFingerprint(cands, models, spec, opt)

	// Reference: one uninterrupted run.
	want, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel while candidate 1 evaluates, with a
	// checkpoint armed.
	path := filepath.Join(t.TempDir(), "study.ckpt")
	ck, err := OpenCheckpoint(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disarm := guard.Arm("dse.candidate", guard.Fault{Skip: 1, OnHit: cancel})
	partial, err := RuntimeStudyHardened(ctx, cands, models, spec, opt, Hardening{Checkpoint: ck})
	disarm()
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("interrupted run: %v", err)
	}
	if len(partial) != 1 {
		t.Fatalf("interrupted run produced %d rows, want 1", len(partial))
	}
	if _, serr := os.Stat(path); serr != nil {
		t.Fatalf("checkpoint not flushed: %v", serr)
	}

	// Resume from the checkpoint file: candidate 0 replays, 1 and 2 run.
	ck2, err := OpenCheckpoint(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Len() != 1 {
		t.Fatalf("reloaded checkpoint has %d outcomes, want 1", ck2.Len())
	}
	got, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{Checkpoint: ck2})
	if err != nil {
		t.Fatal(err)
	}

	if FormatRuntimeRows(got) != FormatRuntimeRows(want) {
		t.Fatalf("resumed output differs from uninterrupted run:\n--- want\n%s\n--- got\n%s",
			FormatRuntimeRows(want), FormatRuntimeRows(got))
	}
}

func TestCheckpointRejectsForeignFingerprint(t *testing.T) {
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)
	path := filepath.Join(t.TempDir(), "study.ckpt")

	ck, err := OpenCheckpoint(path, StudyFingerprint(cands, models, spec, opt))
	if err != nil {
		t.Fatal(err)
	}
	ck.Record(cands[0].Point, RuntimeRow{Point: cands[0].Point})
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}

	otherSpec := BatchSpec{Fixed: 128}
	if _, err := OpenCheckpoint(path, StudyFingerprint(cands, models, otherSpec, opt)); !errors.Is(err, guard.ErrInvalidConfig) {
		t.Fatalf("foreign checkpoint must fail with ErrInvalidConfig, got %v", err)
	}
}

func TestCheckpointReplaysFailures(t *testing.T) {
	ckPath := filepath.Join(t.TempDir(), "study.ckpt")
	ck, err := OpenCheckpoint(ckPath, "fp")
	if err != nil {
		t.Fatal(err)
	}
	p := Point{X: 8, N: 1, Tx: 1, Ty: 1}
	ck.RecordFailure(p, guard.Infeasible("dse: testing"))
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	ck2, err := OpenCheckpoint(ckPath, "fp")
	if err != nil {
		t.Fatal(err)
	}
	ferr, ok := ck2.LookupFailure(p)
	if !ok {
		t.Fatal("failure not recorded")
	}
	if !errors.Is(ferr, guard.ErrInfeasible) {
		t.Fatalf("replayed failure %v lost its guard kind", ferr)
	}
}

func TestWinnerSkipsNaN(t *testing.T) {
	rows := []RuntimeRow{
		{Point: Point{X: 8}, AchievedTOPS: math.NaN()},
		{Point: Point{X: 16}, AchievedTOPS: 10},
		{Point: Point{X: 32}, AchievedTOPS: 20},
	}
	w, err := Winner(rows, ByAchievedTOPS)
	if err != nil {
		t.Fatal(err)
	}
	if w.Point.X != 32 {
		t.Fatalf("winner %v, want X=32", w.Point)
	}

	allNaN := []RuntimeRow{{AchievedTOPS: math.NaN()}, {AchievedTOPS: math.NaN()}}
	if _, err := Winner(allNaN, ByAchievedTOPS); !errors.Is(err, guard.ErrNonFinite) {
		t.Fatalf("all-NaN rows must fail with ErrNonFinite, got %v", err)
	}
	if _, err := Winner(nil, ByAchievedTOPS); !errors.Is(err, guard.ErrInvalidConfig) {
		t.Fatalf("empty rows must fail with ErrInvalidConfig, got %v", err)
	}
}

func TestFrontierAndSortNaNSafe(t *testing.T) {
	base := findCand(t, Point{X: 64, N: 2, Tx: 2, Ty: 4})
	nan := base
	nan.Point = Point{X: 64, N: 2, Tx: 4, Ty: 4}
	nan.PeakTOPSPerTCO = math.NaN()
	nan.PeakTOPS = base.PeakTOPS // same bin as base

	front := Frontier([]Candidate{nan, base}, TableI().TOPSCap)
	for _, c := range front {
		if c.Point == nan.Point {
			t.Fatalf("NaN TOPS/TCO candidate won its frontier bin")
		}
	}

	// NaN PeakTOPS must sort last, not scramble the order.
	nanPeak := base
	nanPeak.Point = Point{X: 64, N: 2, Tx: 8, Ty: 8}
	nanPeak.PeakTOPS = math.NaN()
	sorted := Frontier([]Candidate{nanPeak, base}, TableI().TOPSCap)
	if len(sorted) > 1 && math.IsNaN(sorted[0].PeakTOPS) {
		t.Fatalf("NaN PeakTOPS sorted first")
	}
}

func TestEnumerateSurvivesInjectedBuildPanic(t *testing.T) {
	defer guard.DisarmAll()
	disarm := guard.Arm("chip.build", guard.Fault{Skip: 2, Count: 1, Panic: true})
	defer disarm()
	out := EnumerateParallel(context.Background(), TableI(), 1)
	if len(out) < len(sweep)-1 {
		t.Fatalf("enumeration lost more than the panicking candidate: %d vs %d", len(out), len(sweep))
	}
}

// countingStore is an empty result store that counts every access.
type countingStore struct{ gets, puts atomic.Int64 }

func (s *countingStore) Get(string) ([]byte, error) {
	s.gets.Add(1)
	return nil, rstore.ErrNotFound
}
func (s *countingStore) Put(string, []byte) error { s.puts.Add(1); return nil }
func (s *countingStore) Quarantine(string, error) {}
func (s *countingStore) Close() error             { return nil }

// TestStudyFailsUpFrontOnUnpreparableModel: a workload that fails
// perfsim.Prepare fails the whole study once, with guard.ErrInvalidConfig,
// before the store, dispatch and pool phases run — on the coordinator's
// local path and on a fleet worker's EvalShard path alike. No candidate is
// evaluated and no per-candidate failure is recorded.
func TestStudyFailsUpFrontOnUnpreparableModel(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	empty := *alexnet(t)[0]
	empty.Name, empty.Layers = "empty", nil
	models := []*graph.Graph{alexnet(t)[0], &empty}
	// A fault that never fires, armed only to count candidate evaluations.
	guard.Arm("dse.candidate", guard.Fault{Skip: math.MaxInt})
	evaluated := func() int { return guard.Stats()["dse.candidate"].Hits }

	st := &countingStore{}
	dispatched := false
	rows, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{
		Workers:  2,
		Results:  rstore.NewCache(st),
		Dispatch: func(context.Context, Shard, func(ShardOutcome)) { dispatched = true },
	})
	if !errors.Is(err, guard.ErrInvalidConfig) || rows != nil {
		t.Fatalf("local: got rows=%v err=%v, want no rows and ErrInvalidConfig", rows, err)
	}
	if want := `dse: runtime study: invalid config: perfsim: graph "empty" has no layers`; err.Error() != want {
		t.Errorf("local: error %q, want %q", err, want)
	}
	if n := st.gets.Load() + st.puts.Load(); n != 0 || dispatched || evaluated() != 0 {
		t.Errorf("local: store accesses=%d dispatched=%v evaluations=%d, want none", n, dispatched, evaluated())
	}

	defer func(orig func(string) (*graph.Graph, error)) { modelByName = orig }(modelByName)
	modelByName = func(name string) (*graph.Graph, error) {
		if name == empty.Name {
			return &empty, nil
		}
		return workloads.ByName(name)
	}
	sh := BuildShard(cands, []int{0, 1, 2}, models, spec, opt, Hardening{})
	outs, err := EvalShard(context.Background(), sh, 2, rstore.NewCache(st))
	if !errors.Is(err, guard.ErrInvalidConfig) || outs != nil {
		t.Fatalf("shard: got outcomes=%v err=%v, want none and ErrInvalidConfig", outs, err)
	}
	if want := `dse: shard: invalid config: perfsim: graph "empty" has no layers`; err.Error() != want {
		t.Errorf("shard: error %q, want %q", err, want)
	}
	if n := st.gets.Load() + st.puts.Load(); n != 0 || evaluated() != 0 {
		t.Errorf("shard: store accesses=%d evaluations=%d, want none", n, evaluated())
	}
}
