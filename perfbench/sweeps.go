package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"neurometer/internal/chip"
	"neurometer/internal/dse"
	"neurometer/internal/obs"
	"neurometer/internal/rstore"
)

// session is one set-up workload, ready to run operations.
type session interface {
	// measure runs operations until the deadline (at least one), recording
	// latencies, results and checks in t and, when tr is not nil, spans.
	measure(ctx context.Context, until time.Time, tr *tracer, t *tally) error
	// verify checks the outputs measure recorded but did not check inline.
	verify(ctx context.Context, t *tally) error
	// probes returns the inputs the per-layer probes time.
	probes() probeSet
	close() error
}

// workload names a workload, its set-up, and the operation kind whose
// latency it reports as op_ms_p50 (and op_ms_p90 in the text record).
type workload struct {
	name    string
	primary string
	setup   func(ctx context.Context, in inputs, o options, t *tally) (session, error)
}

var workloadList = []workload{
	{"cold_sweep", "sweep", setupColdSweep},
	{"warm_study", "study", setupWarmStudy},
	{"store_resume", "read_pass", setupStoreResume},
	{"serve_mixed", "simulate", setupServeMixed},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// untilDone loops op until the deadline, running it at least once. It stops
// early on a harness error.
func untilDone(until time.Time, op func() error) error {
	for first := true; first || time.Now().Before(until); first = false {
		if err := op(); err != nil {
			return err
		}
	}
	return nil
}

func counter(name string) int64 { return obs.Default().Counter(name).Value() }

// ---- cold_sweep ------------------------------------------------------------

// coldSweep reproduces the paper's Table I sweep from a cold build cache:
// enumerate -> frontier -> second round -> Fig. 8 rows -> Fig. 10 over all
// three batch regimes, as cmd/dse -fig 8 and -fig 10 do.
type coldSweep struct {
	in      inputs
	corrupt bool
	ref     digests

	// from the latest sweep, for the probes
	feasible, cands []dse.Candidate
}

type sweepOutput struct {
	feasible, frontier, cands []dse.Candidate
	fig8                      []dse.Fig8Row
	fig10                     map[string][]dse.RuntimeRow
}

func (s *coldSweep) sweep(ctx context.Context, tr *tracer, root int) (sweepOutput, error) {
	var o sweepOutput
	sp := tr.begin("chip.reset_build_cache", root)
	chip.ResetBuildCache()
	tr.finish(sp)

	sp = tr.begin("dse.enumerate", root)
	o.feasible = dse.EnumerateParallel(ctx, s.in.cs, s.in.workers)
	tr.finish(sp)

	sp = tr.begin("dse.frontier", root)
	o.frontier = dse.Frontier(o.feasible, s.in.cs.TOPSCap)
	o.cands = dse.SecondRound(o.frontier, s.in.cs.TOPSCap)
	tr.finish(sp)

	sp = tr.begin("dse.fig8", root)
	o.fig8 = dse.Fig8(o.frontier)
	tr.finish(sp)

	sp = tr.begin("dse.study", root)
	var err error
	o.fig10, err = dse.Fig10Hardened(ctx, o.cands, s.in.models, dse.Hardening{Workers: s.in.workers}, "")
	tr.finish(sp)
	if err != nil {
		return o, fmt.Errorf("cold sweep: %w", err)
	}
	return o, checkStudy(o.fig10, len(o.cands))
}

func (s *coldSweep) digest(o sweepOutput) digests {
	d := digests{}
	fig8Digest(d, o.fig8)
	fig10Digests(d, o.fig10)
	return d
}

// setupColdSweep runs one sweep as warm-up; its output is the reference
// every measured sweep must reproduce (and, on seed 0, the pinned one).
func setupColdSweep(ctx context.Context, in inputs, o options, t *tally) (session, error) {
	s := &coldSweep{in: in, corrupt: o.corrupt}
	out, err := s.sweep(ctx, nil, 0)
	t.check(err)
	if err != nil {
		return nil, err
	}
	s.ref = s.digest(out)
	t.check(checkPinned(in.seed, s.ref, pinnedFrontier()))
	s.feasible, s.cands = out.feasible, out.cands
	return s, nil
}

func (s *coldSweep) measure(ctx context.Context, until time.Time, tr *tracer, t *tally) error {
	return untilDone(until, func() error {
		root := tr.begin("sweep", 0)
		w := startWatch()
		out, err := s.sweep(ctx, tr, root)
		d, cpu := w.stop()
		tr.finish(root)
		t.op("sweep", d)
		t.addBusy(d, cpu)
		if err == nil {
			t.results.Add(int64(countRows(out.fig10)))
			if s.corrupt {
				corruptOutputs(out.fig8, out.fig10)
			}
			err = s.digest(out).same(s.ref)
			s.feasible, s.cands = out.feasible, out.cands
		}
		t.check(err)
		return nil
	})
}

func (s *coldSweep) probes() probeSet {
	return probeSet{chips: chipsOf(s.feasible), study: s.cands}
}

func (s *coldSweep) verify(context.Context, *tally) error { return nil }

func (s *coldSweep) close() error { return nil }

// checkStudy fails a Fig. 10 study that lost a row: every candidate must
// produce one row per regime.
func checkStudy(out map[string][]dse.RuntimeRow, cands int) error {
	if cands == 0 {
		return fmt.Errorf("study has no candidates")
	}
	for _, regime := range dse.Fig10Regimes {
		if n := len(out[regime]); n != cands {
			return fmt.Errorf("fig10 %s: %d rows for %d candidates", regime, n, cands)
		}
	}
	return nil
}

// studyDigests digests a Fig. 10 study's output, corrupting it first when
// asked (self-test).
func studyDigests(out map[string][]dse.RuntimeRow, corrupt bool) digests {
	if corrupt {
		corruptOutputs(nil, out)
	}
	d := digests{}
	fig10Digests(d, out)
	return d
}

func chipsOf(cands []dse.Candidate) []*chip.Chip {
	out := make([]*chip.Chip, len(cands))
	for i, c := range cands {
		out[i] = c.Chip
	}
	return out
}

// ---- warm_study --------------------------------------------------------------

// warmStudy runs the Fig. 10 study over the whole feasible set of chips
// built once during set-up: perfsim and the dse worker pool do the work,
// chip.Build does none.
type warmStudy struct {
	in       inputs
	corrupt  bool
	feasible []dse.Candidate
	ref      digests
}

func setupWarmStudy(ctx context.Context, in inputs, o options, t *tally) (session, error) {
	s := &warmStudy{in: in, corrupt: o.corrupt}
	chip.ResetBuildCache()
	s.feasible = dse.EnumerateParallel(ctx, in.cs, in.workers)
	out, err := s.study(ctx)
	if err == nil {
		err = checkStudy(out, len(s.feasible))
	}
	t.check(err)
	if err != nil {
		return nil, err
	}
	s.ref = studyDigests(out, false)
	t.check(checkPinned(in.seed, s.ref, pinnedFullSet))
	return s, nil
}

func (s *warmStudy) study(ctx context.Context) (map[string][]dse.RuntimeRow, error) {
	return dse.Fig10Hardened(ctx, s.feasible, s.in.models, dse.Hardening{Workers: s.in.workers}, "")
}

func (s *warmStudy) measure(ctx context.Context, until time.Time, tr *tracer, t *tally) error {
	return untilDone(until, func() error {
		root := tr.begin("study", 0)
		w := startWatch()
		sp := tr.begin("dse.study", root)
		out, err := s.study(ctx)
		tr.finish(sp)
		d, cpu := w.stop()
		tr.finish(root)
		t.op("study", d)
		t.addBusy(d, cpu)
		if err == nil {
			err = checkStudy(out, len(s.feasible))
		}
		if err == nil {
			t.results.Add(int64(countRows(out)))
			err = studyDigests(out, s.corrupt).same(s.ref)
		}
		t.check(err)
		return nil
	})
}

func (s *warmStudy) probes() probeSet {
	return probeSet{chips: chipsOf(s.feasible), study: s.feasible}
}

func (s *warmStudy) verify(context.Context, *tally) error { return nil }

func (s *warmStudy) close() error { return nil }

// ---- store_resume ------------------------------------------------------------

// storeResume runs the Fig. 10 frontier study through the result store: a
// write pass into an empty store directory alternates with a read pass that
// reopens that store and must be served entirely from it.
type storeResume struct {
	in      inputs
	corrupt bool
	cands   []dse.Candidate
	ref     digests
	base    string
	cycle   int
}

// workDir holds store directories and trace files, inside the working
// directory (next to the benchmark binary).
var workDir = filepath.Join(".bench_build", "perfbench-work")

func setupStoreResume(ctx context.Context, in inputs, o options, t *tally) (session, error) {
	s := &storeResume{in: in, corrupt: o.corrupt}
	chip.ResetBuildCache()
	all := dse.EnumerateParallel(ctx, in.cs, in.workers)
	s.cands = dse.SecondRound(dse.Frontier(all, in.cs.TOPSCap), in.cs.TOPSCap)
	out, err := dse.Fig10Hardened(ctx, s.cands, in.models, dse.Hardening{Workers: in.workers}, "")
	if err == nil {
		err = checkStudy(out, len(s.cands))
	}
	t.check(err)
	if err != nil {
		return nil, err
	}
	s.ref = studyDigests(out, false)
	t.check(checkPinned(in.seed, s.ref, pinnedFrontierFig10))
	if s.base, err = tempDir("store-"); err != nil {
		return nil, err
	}
	return s, nil
}

// tempDir makes a fresh directory under workDir.
func tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workDir, prefix)
}

// pass runs the frontier study through a store at dir, records its time
// as an operation of the given kind, and returns its output and the
// store's scan report. Only read passes count towards results_per_s and
// cpu_ms_per_result: a write pass syncs every entry to disk, so its time is
// the host disk's sync latency, which drifts twofold between minutes on a
// shared host. It is reported as write_pass_ms_p50, never gated.
func (s *storeResume) pass(ctx context.Context, tr *tracer, t *tally, kind, dir string) (map[string][]dse.RuntimeRow, rstore.ScanReport, error) {
	root := tr.begin(kind, 0)
	defer tr.finish(root)
	w := startWatch()
	defer func() {
		d, cpu := w.stop()
		t.op(kind, d)
		if kind == "read_pass" {
			t.addBusy(d, cpu)
		}
	}()
	sp := tr.begin("rstore.open", root)
	st, err := rstore.OpenDisk(dir)
	tr.finish(sp)
	if err != nil {
		return nil, rstore.ScanReport{}, err
	}
	cache := rstore.NewCache(st)
	sp = tr.begin("dse.study", root)
	out, err := dse.Fig10Hardened(ctx, s.cands, s.in.models, dse.Hardening{Workers: s.in.workers, Results: cache}, "")
	tr.finish(sp)
	sp = tr.begin("rstore.close", root)
	cerr := cache.Close()
	tr.finish(sp)
	if err == nil {
		err = cerr
	}
	return out, st.Report(), err
}

func (s *storeResume) measure(ctx context.Context, until time.Time, tr *tracer, t *tally) error {
	rows := int64(len(s.cands) * len(dse.Fig10Regimes))
	return untilDone(until, func() error {
		s.cycle++
		dir := filepath.Join(s.base, fmt.Sprintf("cycle-%d", s.cycle))

		// Write pass: every row evaluated and persisted.
		hits, writeFails := counter("dse.candidates_from_store"), counter("rstore.write_failures")
		out, _, err := s.pass(ctx, tr, t, "write_pass", dir)
		if err == nil {
			err = checkStudy(out, len(s.cands))
		}
		if err == nil {
			err = studyDigests(out, s.corrupt).same(s.ref)
		}
		if err == nil {
			if h := counter("dse.candidates_from_store") - hits; h != 0 {
				err = fmt.Errorf("write pass into an empty store had %d hits", h)
			} else if f := counter("rstore.write_failures") - writeFails; f != 0 {
				err = fmt.Errorf("write pass: %d store writes failed", f)
			}
		}
		t.check(err)

		settle()

		// Read pass: the reopened store serves every row.
		hits = counter("dse.candidates_from_store")
		out, scan, err := s.pass(ctx, tr, t, "read_pass", dir)
		if err == nil {
			err = checkStudy(out, len(s.cands))
		}
		if err == nil {
			t.results.Add(rows)
			err = studyDigests(out, s.corrupt).same(s.ref)
		}
		if err == nil {
			if h := counter("dse.candidates_from_store") - hits; h != rows {
				err = fmt.Errorf("read pass served %d of %d rows from the store", h, rows)
			} else if int64(scan.Entries) != rows {
				err = fmt.Errorf("reopened store holds %d entries, want %d", scan.Entries, rows)
			}
		}
		t.check(err)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		settle()
		return nil
	})
}

// settle flushes the file system and collects the heap between passes,
// outside their timing, so the journal and discard work one pass's writes
// and deletes leave behind, and its garbage, are not charged to the next.
func settle() {
	syscall.Sync()
	runtime.GC()
}

func (s *storeResume) probes() probeSet {
	return probeSet{chips: chipsOf(s.cands), study: s.cands}
}

func (s *storeResume) verify(context.Context, *tally) error { return nil }

func (s *storeResume) close() error { return os.RemoveAll(s.base) }
