package dse

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/maclib"
	"neurometer/internal/obs"
	"neurometer/internal/perfsim"
	"neurometer/internal/periph"
	"neurometer/internal/rstore"
	"neurometer/internal/workloads"
)

// Observability: sweep counters and the per-candidate evaluation latency
// histogram feed the obs default registry; progress is logged at debug
// level (visible under the CLIs' -v flag).
var (
	mEnumerated   = obs.NewCounter("dse.candidates_enumerated")
	mPruned       = obs.NewCounter("dse.candidates_pruned")
	mFeasible     = obs.NewCounter("dse.candidates_feasible")
	mEvalFailures = obs.NewCounter("dse.candidate_failures")
	mEvalRetries  = obs.NewCounter("dse.candidate_retries")
	mEvalPanics   = obs.NewCounter("dse.candidate_panics")
	mResumed      = obs.NewCounter("dse.candidates_resumed")
	mRemote       = obs.NewCounter("dse.candidates_remote")
	mEvalLatency  = obs.NewHistogram("dse.candidate_eval_seconds", nil)
)

// progressEvery is the candidate interval between progress log lines in
// the enumeration and runtime-study loops.
const progressEvery = 16

// Point is one design point: TU length X, TUs per core N, and the Tx x Ty
// tile grid.
type Point struct {
	X, N, Tx, Ty int
}

func (p Point) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d)", p.X, p.N, p.Tx, p.Ty)
}

// Tiles returns the core count.
func (p Point) Tiles() int { return p.Tx * p.Ty }

// Constraints mirrors Table I.
type Constraints struct {
	TechNM        int
	ClockHz       float64
	AreaBudgetMM2 float64
	PowerBudgetW  float64
	TOPSCap       float64
	MemBytes      int64
	NoCBisectGBps float64
	OffChipGBps   float64
	// XChoices / NChoices bound the sweep; MaxTiles bounds the grid.
	XChoices []int
	NChoices []int
	MaxTiles int
}

// TableI returns the paper's datacenter constraint set: 28nm, 700MHz,
// 500mm^2 / 300W budgets, 92 TOPS upper bound, 32MB distributed memory,
// 256GB/s NoC bisection, 700GB/s HBM.
func TableI() Constraints {
	return Constraints{
		TechNM:        28,
		ClockHz:       700e6,
		AreaBudgetMM2: 500,
		PowerBudgetW:  300,
		TOPSCap:       92,
		MemBytes:      32 << 20,
		NoCBisectGBps: 256,
		OffChipGBps:   700,
		XChoices:      []int{4, 8, 16, 32, 64, 128, 256},
		NChoices:      []int{1, 2, 4},
		MaxTiles:      128,
	}
}

// Config converts a design point into a chip configuration under the
// constraint set.
func (cs Constraints) Config(p Point) chip.Config {
	return chip.Config{
		Name: p.String(), TechNM: cs.TechNM, ClockHz: cs.ClockHz,
		Tx: p.Tx, Ty: p.Ty,
		Core: chip.CoreConfig{
			NumTUs: p.N, TURows: p.X, TUCols: p.X, TUDataType: maclib.Int8,
			HasSU: true,
			Mem: []chip.MemSegment{{
				Name: "spad", CapacityBytes: cs.MemBytes / int64(p.Tiles()),
			}},
		},
		NoCBisectionGBps: cs.NoCBisectGBps,
		OffChip:          []chip.OffChipPort{{Kind: periph.HBMPort, GBps: cs.OffChipGBps}},
		AreaBudgetMM2:    cs.AreaBudgetMM2,
		PowerBudgetW:     cs.PowerBudgetW,
	}
}

// Candidate is an evaluated, feasible design point.
type Candidate struct {
	Point Point
	Chip  *chip.Chip

	PeakTOPS       float64
	AreaMM2        float64
	TDPW           float64
	PeakTOPSPerW   float64
	PeakTOPSPerTCO float64
}

// gridShapes enumerates Tx x Ty grids with power-of-two dimensions where
// Tx == Ty or Tx == Ty/2 (the paper's square-ish layout rule).
func gridShapes(maxTiles int) [][2]int {
	var out [][2]int
	for tx := 1; tx*tx <= maxTiles*2; tx *= 2 {
		for _, ty := range []int{tx, 2 * tx} {
			if tx*ty <= maxTiles {
				out = append(out, [2]int{tx, ty})
			}
		}
	}
	return out
}

// sweepPoints lists the full (X, N, Tx, Ty) sweep in its deterministic
// enumeration order — the order candidate indices refer to.
func (cs Constraints) sweepPoints() []Point {
	var pts []Point
	for _, x := range cs.XChoices {
		for _, n := range cs.NChoices {
			for _, g := range gridShapes(cs.MaxTiles) {
				pts = append(pts, Point{X: x, N: n, Tx: g[0], Ty: g[1]})
			}
		}
	}
	return pts
}

// EnumerateParallel sweeps the (X, N, Tx, Ty) space, builds every
// candidate, and prunes the ones that exceed the area/power budgets or the
// peak-TOPS upper bound (§III-A.1: points beyond the budget or with
// extremely low performance are pruned; core count is swept up to the
// feasibility edge). The result is sorted by peak TOPS descending, then X
// descending, then tile count ascending.
//
// Builds fan out across a bounded worker pool (workers <= 1 runs serially
// on the caller's goroutine; DefaultWorkers = GOMAXPROCS) and are memoized
// through chip.BuildCached — repeated enumerations and the figure drivers'
// reference points share one build per distinct configuration. Results
// are collected by sweep index, so the candidate list is identical for any
// worker count.
//
// The sweep is fault tolerant: chip.Build converts model-stack panics to
// guard.ErrCandidatePanic, so a single broken design point cannot take
// down the sweep — it is counted, logged at warn level, and pruned.
// Cancelling ctx stops the enumeration early; the candidates built so far
// are returned. A span covers the sweep, with pruning counters and
// debug-level progress logging.
func EnumerateParallel(ctx context.Context, cs Constraints, workers int) []Candidate {
	ctx, span := obs.Start(ctx, "dse.enumerate")
	defer span.End()
	span.SetInt("workers", int64(resolveWorkers(workers)))
	points := cs.sweepPoints()
	results := make([]*Candidate, len(points))
	var tried atomic.Int64
	// Block size 1: builds are heavyweight, memoized, and unevenly pruned,
	// so fine-grained claiming balances better than blocks here.
	interrupted := runPool(ctx, len(points), workers, 1, func(i int) {
		p := points[i]
		mEnumerated.Inc()
		if n := tried.Add(1); n%progressEvery == 0 {
			slog.DebugContext(ctx, "dse: enumerate progress",
				"tried", n, "total", len(points))
		}
		peak := 2 * float64(p.X) * float64(p.X) * float64(p.N) *
			float64(p.Tiles()) * cs.ClockHz / 1e12
		// Prune over-cap and extremely low performance points early.
		if peak > cs.TOPSCap*1.001 || peak < cs.TOPSCap/32 {
			mPruned.Inc()
			return
		}
		c, err := chip.BuildCached(cs.Config(p))
		if err != nil {
			mPruned.Inc()
			if errors.Is(err, guard.ErrCandidatePanic) {
				mEvalPanics.Inc()
				slog.WarnContext(ctx, "dse: candidate build panicked (recovered)",
					"point", p.String(), "err", err)
			}
			return // over budget, timing-infeasible, or broken
		}
		mFeasible.Inc()
		results[i] = &Candidate{
			Point:          p,
			Chip:           c,
			PeakTOPS:       c.PeakTOPS(),
			AreaMM2:        c.AreaMM2(),
			TDPW:           c.TDPW(),
			PeakTOPSPerW:   c.PeakTOPSPerWatt(),
			PeakTOPSPerTCO: c.PeakTOPSPerTCO(),
		}
	})
	var out []Candidate
	for _, r := range results {
		if r != nil {
			out = append(out, *r)
		}
	}
	if interrupted != nil {
		slog.WarnContext(ctx, "dse: enumerate interrupted",
			"tried", tried.Load(), "feasible", len(out), "err", interrupted)
	}
	sortCandidates(out)
	span.SetInt("tried", tried.Load())
	span.SetInt("feasible", int64(len(out)))
	slog.DebugContext(ctx, "dse: enumerate done", "tried", tried.Load(), "feasible", len(out))
	return out
}

// sortCandidates puts cands in presentation order: peak TOPS descending,
// then X descending, then tile count ascending.
func sortCandidates(cands []Candidate) {
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if c := cmpDesc(a.PeakTOPS, b.PeakTOPS); c != 0 {
			return c < 0
		}
		if a.Point.X != b.Point.X {
			return a.Point.X > b.Point.X
		}
		return a.Point.Tiles() < b.Point.Tiles()
	})
}

// cmpDesc orders a before b (negative) when a is larger, with NaN always
// last. Raw float comparators break sort transitivity in the presence of
// NaN (every comparison is false), which can scramble an entire sort; this
// comparator keeps the order total.
func cmpDesc(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return 0
}

// Frontier reduces the feasible set to the representative points of
// Fig. 8's x-axis: the figure's subclusters are bins of peak TOPS
// (TOPSCap, /2, /4, /8), and per (X, N) and bin the best-TOPS/TCO grid is
// kept. This keeps one entry per brawniness level and performance class —
// including the paper's named points (64,2,2,4), (64,4,1,2) and (8,4,4,8).
func Frontier(cands []Candidate, topsCap float64) []Candidate {
	type key struct {
		x, n, bin int
	}
	best := map[key]Candidate{}
	for _, c := range cands {
		bin := 0
		for b := topsCap; b >= topsCap/8-1e-9; b /= 2 {
			if c.PeakTOPS > b*0.6 {
				break
			}
			bin++
		}
		k := key{c.Point.X, c.Point.N, bin}
		// cmpDesc keeps a NaN TOPS/TCO from ever displacing a finite one.
		if cur, ok := best[k]; !ok || cmpDesc(c.PeakTOPSPerTCO, cur.PeakTOPSPerTCO) < 0 {
			best[k] = c
		}
	}
	var out []Candidate
	for _, c := range best {
		out = append(out, c)
	}
	sortCandidates(out)
	return out
}

// SecondRound applies the paper's second-round pruning before the runtime
// study: design points with extremely low peak performance are dropped.
// The paper's own verdict is that the 4x4 class delivers under 1/12 of the
// target peak at comparable area, so both the TOPS floor and the 4x4 class
// itself are excluded (our softer area model would otherwise let very large
// 4x4 grids reach higher peaks than the paper's did).
func SecondRound(cands []Candidate, topsCap float64) []Candidate {
	var out []Candidate
	for _, c := range cands {
		// A NaN PeakTOPS fails the >= comparison, so corrupted candidates
		// are dropped here rather than carried into the runtime study.
		if c.PeakTOPS >= topsCap/12 && c.Point.X >= 8 {
			out = append(out, c)
		}
	}
	return out
}

// Candidates is the candidate set of the Fig. 8 and Fig. 10 studies: the
// enumerated feasible set (EnumerateParallel), reduced to the Fig. 8
// frontier unless full is set. Both steps return presentation order (peak
// TOPS descending, then X descending, then tile count ascending), and
// SecondRound is an order-preserving filter, so callers may apply it
// afterwards without re-sorting.
func Candidates(ctx context.Context, cs Constraints, full bool, workers int) []Candidate {
	cands := EnumerateParallel(ctx, cs, workers)
	if !full {
		cands = Frontier(cands, cs.TOPSCap)
	}
	return cands
}

// BatchSpec selects the batch regime of a runtime study: a fixed batch
// size, or the largest batch meeting a latency bound (the paper's 10ms SLO
// "medium batch").
type BatchSpec struct {
	Fixed        int     // used when > 0
	LatencyBound float64 // seconds; used when Fixed == 0
}

func (b BatchSpec) String() string {
	if b.Fixed > 0 {
		return fmt.Sprintf("bs=%d", b.Fixed)
	}
	return fmt.Sprintf("bs=latency<%.0fms", b.LatencyBound*1e3)
}

// RuntimeRow aggregates a candidate's runtime metrics over the workload set
// (Fig. 10 format): arithmetic-mean achieved TOPS, geometric-mean
// utilization and efficiencies (§III-B.2's averaging conventions).
type RuntimeRow struct {
	Point        Point
	PeakTOPS     float64
	AchievedTOPS float64 // arithmetic mean
	Utilization  float64 // geometric mean
	PowerW       float64 // arithmetic mean
	TOPSPerWatt  float64 // geometric mean
	TOPSPerTCO   float64 // geometric mean
	// Batches records the batch size used per workload (differs under a
	// latency bound).
	Batches []int
}

// Hardening configures the fault-tolerance envelope of a runtime study.
// The zero value means: no per-candidate deadline, no retries, no
// checkpoint, serial evaluation.
type Hardening struct {
	// CandidateTimeout bounds each candidate's evaluation across the whole
	// workload set; 0 = unbounded. An expired deadline fails the candidate
	// with guard.ErrTimeout.
	CandidateTimeout time.Duration
	// MaxRetries re-evaluates a candidate whose failure is retryable
	// (guard.Retryable — timeouts). Validation errors, infeasibility,
	// non-finite results, and panics are deterministic and never retried.
	MaxRetries int
	// Checkpoint, when non-nil, makes the study resumable: every
	// candidate outcome (row or failure) is recorded and flushed as it
	// completes, and already-recorded candidates replay from the
	// checkpoint instead of re-simulating. Because the simulator is
	// deterministic and the checkpoint stores exact float64 values, a
	// resumed study produces byte-identical output to an uninterrupted
	// one.
	Checkpoint *Checkpoint
	// Workers bounds the evaluation pool: <= 1 (and the zero value) runs
	// candidates serially on the caller's goroutine — the historical
	// behavior — and DefaultWorkers resolves to GOMAXPROCS. Results are
	// collected by candidate index, so output is byte-identical across
	// worker counts.
	Workers int
	// BlockSize is the number of consecutive candidates a worker claims at
	// a time (< 1, including the zero value, resolves to DefaultBlockSize).
	// Larger blocks keep a worker's evaluation scratch and the prepared
	// workload tables hot across a run of candidates at the cost of coarser
	// load balancing near the end of a sweep. The block size only changes
	// which worker evaluates which candidate — results are collected by
	// index, so output is byte-identical at any (Workers, BlockSize) pair.
	BlockSize int
	// Dispatch, when non-nil, is offered the pending (not checkpointed)
	// candidates before the local pool runs: it evaluates whatever it can
	// remotely — fleet.Coordinator.Dispatch shards them across workers —
	// and reports resolved outcomes through its callback (safe to call
	// from any goroutine). Candidates it leaves unreported fall through to
	// local in-process evaluation, so losing every remote worker degrades
	// the study, never fails it. Because remote evaluation is
	// deterministic and outcomes merge by candidate index through the same
	// checkpoint machinery, output stays byte-identical at any fleet size
	// and any failure schedule.
	Dispatch func(ctx context.Context, sh Shard, report func(ShardOutcome))
	// Results, when non-nil, is the persistent content-addressed result
	// store: pending candidates are looked up (fully verified — envelope
	// checksum, fingerprint match, finite metrics) before any evaluation
	// is scheduled, local evaluations run under the store's single-flight
	// layer and persist their rows, and remote outcomes are written back
	// best-effort. Store faults of every kind degrade to evaluation, so a
	// study runs byte-identically with a cold, warm, poisoned, or absent
	// store. A nil Cache (including rstore.NewCache(nil)) disables all of
	// this.
	Results *rstore.Cache
}

// outcome is one candidate's resolved result, held in an index-addressed
// slice until assembly so output order never depends on completion order.
type outcome struct {
	row     RuntimeRow
	err     error
	done    bool // evaluated or replayed (false = skipped by cancellation)
	resumed bool // replayed from the checkpoint
}

// RuntimeStudyHardened simulates every candidate on the workload set under
// the batch regime and aggregates the four Fig. 10 metrics, under the
// robustness envelope h and an optional worker pool (Hardening.Workers).
// A span covers the study, with a child span per candidate (nesting the
// per-graph simulation spans), an eval-latency histogram, and progress
// logging.
//
// Every workload graph is validated and prepared once, up front: a model
// that fails perfsim.Prepare fails the whole study (guard.ErrInvalidConfig)
// before any checkpoint, store, dispatch or evaluation work starts.
//
// A failing candidate does not abort the sweep: per candidate the study
// recovers panics (guard.ErrCandidatePanic), enforces the deadline,
// retries retryable failures, and rejects rows with non-finite aggregates.
// The error is wrapped with the design point and model name, counted in
// the dse.candidate_failures metric, logged, and the candidate is skipped;
// the joined failure errors are returned only when every candidate failed
// (no rows survived). A canceled sweep ctx stops new evaluations, lets
// in-flight workers unwind, flushes the checkpoint, and returns the rows
// completed so far along with the classified cause (guard.ErrCanceled /
// guard.ErrTimeout).
//
// Determinism: rows and failures are assembled in candidate order whatever
// the worker count, the checkpoint file serializes its outcome maps with
// sorted keys, and each candidate's evaluation is single-threaded — so a
// parallel, a serial, and a resumed run of the same study all emit
// byte-identical output.
func RuntimeStudyHardened(ctx context.Context, cands []Candidate, models []*graph.Graph, spec BatchSpec, opt perfsim.Options, h Hardening) ([]RuntimeRow, error) {
	ctx, span := obs.Start(ctx, "dse.runtime-study")
	defer span.End()
	span.SetStr("spec", spec.String())
	span.SetInt("candidates", int64(len(cands)))
	span.SetInt("workers", int64(resolveWorkers(h.Workers)))

	// One simulation context for the whole study: every workload graph is
	// validated and prepared exactly once here, then shared read-only by
	// all workers — the per-candidate hot path never re-parses a graph.
	prepared, err := prepareModels(models)
	if err != nil {
		return nil, fmt.Errorf("dse: runtime study: %w", err)
	}

	// Replay checkpointed outcomes up front (cheap map lookups); only the
	// remainder enters the pool.
	outs := make([]outcome, len(cands))
	var pending []int
	for i, cand := range cands {
		if h.Checkpoint != nil {
			if row, ok := h.Checkpoint.Lookup(cand.Point); ok {
				outs[i] = outcome{row: row, done: true, resumed: true}
				continue
			}
			if ferr, ok := h.Checkpoint.LookupFailure(cand.Point); ok {
				outs[i] = outcome{err: ferr, done: true, resumed: true}
				continue
			}
		}
		pending = append(pending, i)
	}

	// Store phase: satisfy the remaining candidates from the persistent
	// result store before any evaluation — local or remote — is scheduled.
	// A hit is recorded to the checkpoint exactly like an evaluated
	// outcome, so an interrupted warm run resumes identically to an
	// interrupted cold one, and the checkpoint file stays byte-identical
	// either way (it stores the same row values).
	names := modelNames(models)
	if h.Results != nil && len(pending) > 0 {
		hits := 0
		remaining := pending[:0]
		for _, i := range pending {
			cand := cands[i]
			fp := CandidateFingerprint(cand.Chip.Cfg, names, spec, opt)
			if row, ok := lookupStoredRow(ctx, h.Results, fp, cand.Point); ok {
				outs[i] = outcome{row: row, done: true}
				if h.Checkpoint != nil {
					h.Checkpoint.Record(cand.Point, row)
				}
				hits++
				continue
			}
			remaining = append(remaining, i)
		}
		if hits > 0 && h.Checkpoint != nil {
			if ferr := h.Checkpoint.Flush(); ferr != nil {
				slog.WarnContext(ctx, "dse: checkpoint flush failed", "err", ferr)
			}
		}
		span.SetInt("store_hits", int64(hits))
		pending = remaining
	}

	// Remote phase: offer the pending candidates to the dispatcher. Its
	// report callback lands outcomes exactly where a local evaluation
	// would — the outs slice and the checkpoint — so the assembly below
	// cannot tell (and the output bytes do not reflect) where a candidate
	// ran. Whatever the dispatcher could not resolve stays pending for the
	// local pool.
	if h.Dispatch != nil && len(pending) > 0 {
		var mu sync.Mutex
		sh := BuildShard(cands, pending, models, spec, opt, h)
		h.Dispatch(ctx, sh, func(o ShardOutcome) {
			if o.Index < 0 || o.Index >= len(outs) {
				slog.WarnContext(ctx, "dse: dispatcher reported out-of-range candidate",
					"index", o.Index, "candidates", len(outs))
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if outs[o.Index].done {
				return // duplicate report (hedged dispatch): first one won
			}
			var err error
			if o.Row == nil {
				err = guard.KindError(o.Kind, o.Err)
			}
			cand := cands[o.Index]
			if err != nil {
				mEvalFailures.Inc()
				slog.WarnContext(ctx, "dse: candidate failed remotely, skipping",
					"point", cand.Point.String(), "kind", guard.Kind(err), "err", err)
				outs[o.Index] = outcome{err: err, done: true}
			} else {
				outs[o.Index] = outcome{row: *o.Row, done: true}
				if h.Results != nil {
					// Warm the store from fleet traffic too (best-effort).
					storeRemoteOutcome(h.Results,
						CandidateFingerprint(cand.Chip.Cfg, names, spec, opt), *o.Row)
				}
			}
			mRemote.Inc()
			if h.Checkpoint != nil {
				if err != nil {
					h.Checkpoint.RecordFailure(cand.Point, err)
				} else {
					h.Checkpoint.Record(cand.Point, *o.Row)
				}
				if ferr := h.Checkpoint.Flush(); ferr != nil {
					slog.WarnContext(ctx, "dse: checkpoint flush failed", "err", ferr)
				}
			}
		})
		remaining := pending[:0]
		for _, i := range pending {
			if !outs[i].done {
				remaining = append(remaining, i)
			}
		}
		if len(remaining) > 0 && guard.CtxErr(ctx) == nil {
			slog.WarnContext(ctx, "dse: dispatcher left candidates unresolved, evaluating locally",
				"unresolved", len(remaining), "dispatched", len(pending))
		}
		span.SetInt("remote_resolved", int64(len(pending)-len(remaining)))
		pending = remaining
	}

	var completed atomic.Int64
	poolErr := runPool(ctx, len(pending), h.Workers, h.BlockSize, func(pi int) {
		i := pending[pi]
		cand := cands[i]
		cctx, cspan := obs.Start(ctx, "dse.candidate")
		cspan.SetStr("point", cand.Point.String())
		evalStart := time.Now()
		var fp string
		if h.Results != nil {
			fp = CandidateFingerprint(cand.Chip.Cfg, names, spec, opt)
		}
		row, err := evalStoreAware(cctx, h.Results, fp, cand, prepared, spec, opt, h)
		mEvalLatency.Observe(time.Since(evalStart).Seconds())
		cspan.End()
		if n := completed.Add(1); n%progressEvery == 0 || n == int64(len(pending)) {
			slog.DebugContext(ctx, "dse: runtime study progress",
				"done", n, "total", len(pending), "spec", spec.String())
		}
		// A canceled sweep ctx surfaces as the candidate's error too;
		// treat it as an interruption, not a candidate failure — the
		// candidate stays un-done and re-evaluates on resume.
		if err != nil && guard.CtxErr(ctx) != nil {
			return
		}
		outs[i] = outcome{row: row, err: err, done: true}
		if err != nil {
			mEvalFailures.Inc()
			if errors.Is(err, guard.ErrCandidatePanic) {
				mEvalPanics.Inc()
			}
			slog.WarnContext(cctx, "dse: candidate failed, skipping",
				"point", cand.Point.String(), "kind", guard.Kind(err), "err", err)
		}
		if h.Checkpoint != nil {
			if err != nil {
				h.Checkpoint.RecordFailure(cand.Point, err)
			} else {
				h.Checkpoint.Record(cand.Point, row)
			}
			if ferr := h.Checkpoint.Flush(); ferr != nil {
				slog.WarnContext(ctx, "dse: checkpoint flush failed", "err", ferr)
			}
		}
	})

	// Assemble in candidate order — identical to the serial walk.
	var rows []RuntimeRow
	var failures []error
	for i := range outs {
		o := &outs[i]
		if !o.done {
			continue
		}
		if o.resumed {
			mResumed.Inc()
		}
		if o.err != nil {
			failures = append(failures, o.err)
			continue
		}
		rows = append(rows, o.row)
	}
	if poolErr != nil {
		if h.Checkpoint != nil {
			if ferr := h.Checkpoint.Flush(); ferr != nil {
				slog.WarnContext(ctx, "dse: checkpoint flush failed", "err", ferr)
			}
		}
		slog.WarnContext(ctx, "dse: runtime study interrupted",
			"done", len(rows), "total", len(cands), "err", poolErr)
		return rows, poolErr
	}
	if len(rows) == 0 && len(failures) > 0 {
		return nil, fmt.Errorf("dse: runtime study: all %d candidates failed: %w",
			len(cands), errors.Join(failures...))
	}
	return rows, nil
}

// prepareModels validates and prepares every workload graph of a study.
// The prepared models are immutable and shared read-only by every worker.
func prepareModels(models []*graph.Graph) ([]*perfsim.Prepared, error) {
	prepared := make([]*perfsim.Prepared, len(models))
	for i, g := range models {
		p, err := perfsim.Prepare(g)
		if err != nil {
			return nil, err
		}
		prepared[i] = p
	}
	return prepared, nil
}

// evalScratch is one evaluation's reusable simulation output. Two Results
// because the latency-bound regime double-buffers its probe batches
// (perfsim.LatencyLimitedInto); the fixed-batch regime uses only a.
type evalScratch struct {
	a, b perfsim.Result
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// evalWithRetry evaluates one candidate under the hardening envelope:
// deadline per attempt, bounded retry of retryable failures.
func evalWithRetry(ctx context.Context, cand Candidate, models []*perfsim.Prepared, spec BatchSpec, opt perfsim.Options, h Hardening) (RuntimeRow, error) {
	for attempt := 0; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if h.CandidateTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, h.CandidateTimeout)
		}
		row, err := evalCandidate(actx, cand, models, spec, opt)
		cancel()
		if err == nil {
			return row, nil
		}
		// Don't burn retries when the sweep itself is shutting down, and
		// don't retry deterministic failures.
		if guard.CtxErr(ctx) != nil || !guard.Retryable(err) || attempt >= h.MaxRetries {
			return RuntimeRow{}, err
		}
		mEvalRetries.Inc()
		slog.DebugContext(ctx, "dse: retrying candidate",
			"point", cand.Point.String(), "attempt", attempt+1, "err", err)
	}
}

// evalCandidate simulates one candidate over the workload set and
// aggregates its Fig. 10 row. Panics anywhere below are converted to
// guard.ErrCandidatePanic; the aggregated row is finite-checked before it
// can reach a frontier or CSV. Simulation output lands in pooled scratch,
// so the steady state of a sweep allocates only the row's Batches slice.
func evalCandidate(ctx context.Context, cand Candidate, models []*perfsim.Prepared, spec BatchSpec, opt perfsim.Options) (row RuntimeRow, err error) {
	defer guard.RecoverTo(&err)
	if ierr := guard.Inject(ctx, "dse.candidate"); ierr != nil {
		return RuntimeRow{}, fmt.Errorf("dse: candidate %s: %w", cand.Point, ierr)
	}
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	row = RuntimeRow{Point: cand.Point, PeakTOPS: cand.PeakTOPS}
	nModels := float64(len(models))
	utilProd, wEffProd, cEffProd := 1.0, 1.0, 1.0
	for _, p := range models {
		res, batch := &sc.a, spec.Fixed
		var serr error
		if batch > 0 {
			serr = p.SimulateInto(ctx, cand.Chip, batch, opt, res)
		} else {
			batch, res, serr = p.LatencyLimitedInto(ctx, cand.Chip, spec.LatencyBound, opt, &sc.a, &sc.b)
		}
		if serr != nil {
			return RuntimeRow{}, fmt.Errorf("dse: candidate %s on model %q (%s): %w",
				cand.Point, p.Graph().Name, spec, serr)
		}
		e := cand.Chip.Efficiency(res.AchievedTOPS*1e12, res.Activity)
		row.AchievedTOPS += res.AchievedTOPS / nModels
		row.PowerW += e.PowerW / nModels
		utilProd *= res.Utilization
		wEffProd *= e.TOPSPerWatt
		cEffProd *= e.TOPSPerTCO
		row.Batches = append(row.Batches, batch)
	}
	inv := 1.0 / nModels
	row.Utilization = math.Pow(utilProd, inv)
	row.TOPSPerWatt = math.Pow(wEffProd, inv)
	row.TOPSPerTCO = math.Pow(cEffProd, inv)
	if ferr := guard.CheckFinites(
		"achieved_tops", row.AchievedTOPS, "utilization", row.Utilization,
		"power_w", row.PowerW, "tops_per_w", row.TOPSPerWatt, "tops_per_tco", row.TOPSPerTCO,
	); ferr != nil {
		return RuntimeRow{}, fmt.Errorf("dse: candidate %s: %w", cand.Point, ferr)
	}
	return row, nil
}

// Winner returns the row maximizing the metric. Rows whose metric is NaN
// never win; if no row has a comparable metric the error wraps
// guard.ErrNonFinite.
func Winner(rows []RuntimeRow, metric func(RuntimeRow) float64) (RuntimeRow, error) {
	if len(rows) == 0 {
		return RuntimeRow{}, guard.Invalid("dse: no rows")
	}
	var best RuntimeRow
	found := false
	for _, r := range rows {
		m := metric(r)
		if math.IsNaN(m) {
			continue
		}
		if !found || m > metric(best) {
			best, found = r, true
		}
	}
	if !found {
		return RuntimeRow{}, fmt.Errorf("dse: all %d rows have NaN metrics: %w",
			len(rows), guard.ErrNonFinite)
	}
	return best, nil
}

// Metric selectors for Winner.
func ByAchievedTOPS(r RuntimeRow) float64 { return r.AchievedTOPS }
func ByUtilization(r RuntimeRow) float64  { return r.Utilization }
func ByTOPSPerWatt(r RuntimeRow) float64  { return r.TOPSPerWatt }
func ByTOPSPerTCO(r RuntimeRow) float64   { return r.TOPSPerTCO }

// DefaultModels returns the Table II workloads.
func DefaultModels() []*graph.Graph { return workloads.All() }
