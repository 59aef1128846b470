package dse

import (
	"context"
	"fmt"
	"time"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/perfsim"
	"neurometer/internal/rstore"
	"neurometer/internal/workloads"
)

// The fleet wire protocol. A shard is a self-contained slice of a runtime
// study: everything a remote worker needs to evaluate a set of candidates
// — batch regime, options, workload names, and per-candidate chip configs
// — plus the study-local index of each candidate so the coordinator can
// merge outcomes back by position. Every field round-trips exactly through
// JSON (configs are ints/strings/exact floats, rows are float64s with
// round-trip-exact encoding), and the simulator is deterministic, so a row
// computed on any worker is bit-identical to the row a local evaluation
// would have produced. That is the whole byte-identity argument for
// distributed studies: the fleet only changes *where* a candidate runs,
// never *what* it computes.

// modelByName resolves a shard's workload names. It is a variable so tests
// can plant a workload that fails perfsim.Prepare.
var modelByName = workloads.ByName

// ShardCandidate is one design point of a shard, addressed by its index in
// the study's candidate list.
type ShardCandidate struct {
	Index  int         `json:"index"`
	Point  Point       `json:"point"`
	Config chip.Config `json:"config"`
}

// Shard is the /v1/worker/eval request body.
type Shard struct {
	Spec   BatchSpec        `json:"spec"`
	Opt    perfsim.Options  `json:"opt"`
	Models []string         `json:"models"`
	Cands  []ShardCandidate `json:"cands"`
	// Worker-side hardening: per-candidate deadline and bounded retry,
	// mirroring Hardening.
	CandidateTimeoutMS int64 `json:"candidate_timeout_ms,omitempty"`
	MaxRetries         int   `json:"max_retries,omitempty"`
}

// ShardOutcome is one candidate's resolved result: a row, or a failure in
// (kind, msg) form. guard.KindError reconstructs the failure coordinator-
// side with the exact message and taxonomy class, so a remotely failed
// candidate surfaces byte-identically to a local failure.
type ShardOutcome struct {
	Index int         `json:"index"`
	Row   *RuntimeRow `json:"row,omitempty"`
	Kind  string      `json:"kind,omitempty"`
	Err   string      `json:"err,omitempty"`
}

// ShardResult is the /v1/worker/eval response body. Spans carries the
// worker's span subtree for the request (present only when the coordinator
// sent a traceparent header); the coordinator grafts it under the
// dispatching span so the merged study trace shows remote per-candidate
// evals in place.
type ShardResult struct {
	Outcomes []ShardOutcome `json:"outcomes"`
	Spans    []obs.WireSpan `json:"spans,omitempty"`
}

// BuildShard packages the candidates at the given study indices for remote
// evaluation under h's per-candidate hardening knobs.
func BuildShard(cands []Candidate, indices []int, models []*graph.Graph, spec BatchSpec, opt perfsim.Options, h Hardening) Shard {
	sh := Shard{
		Spec:               spec,
		Opt:                opt,
		CandidateTimeoutMS: int64(h.CandidateTimeout / time.Millisecond),
		MaxRetries:         h.MaxRetries,
	}
	for _, g := range models {
		sh.Models = append(sh.Models, g.Name)
	}
	for _, i := range indices {
		sh.Cands = append(sh.Cands, ShardCandidate{
			Index:  i,
			Point:  cands[i].Point,
			Config: cands[i].Chip.Cfg,
		})
	}
	return sh
}

// EvalShard is the worker side of the fleet protocol: rebuild each
// candidate's chip from its config (memoized through chip.BuildCached),
// evaluate it over the workload set under the shard's hardening knobs, and
// report one outcome per candidate. Candidate failures are outcomes, not
// errors — a shard full of infeasible points still succeeds. EvalShard
// itself fails only on malformed shards (unknown workloads, a model that
// fails perfsim.Prepare, no candidates) — once, up front, before any
// candidate is touched — or when ctx dies mid-shard, in which case the
// coordinator retries the whole shard elsewhere (re-evaluation is free of
// side effects and deterministic).
//
// cache, when non-nil, is the worker's local result store: each candidate
// is looked up by the same fingerprint the coordinator derives (the shard
// fields round-trip exactly through JSON, so both sides address the same
// entry), and fresh evaluations are persisted best-effort. A nil cache —
// or any store fault — just means every candidate evaluates.
func EvalShard(ctx context.Context, sh Shard, workers int, cache *rstore.Cache) ([]ShardOutcome, error) {
	if len(sh.Cands) == 0 {
		return nil, guard.Invalid("dse: shard: no candidates")
	}
	if len(sh.Models) == 0 {
		return nil, guard.Invalid("dse: shard: no models")
	}
	models := make([]*graph.Graph, 0, len(sh.Models))
	for _, name := range sh.Models {
		g, err := modelByName(name)
		if err != nil {
			return nil, guard.Invalid("dse: shard: %v", err)
		}
		models = append(models, g)
	}
	h := Hardening{
		CandidateTimeout: time.Duration(sh.CandidateTimeoutMS) * time.Millisecond,
		MaxRetries:       sh.MaxRetries,
	}
	// The whole shard shares one simulation context: every workload prepared
	// once, candidates evaluated as one batch over it — a worker's hot path
	// is the same prepared closed forms the coordinator's local pool runs.
	prepared, err := prepareModels(models)
	if err != nil {
		return nil, fmt.Errorf("dse: shard: %w", err)
	}
	outs := make([]ShardOutcome, len(sh.Cands))
	runPool(ctx, len(sh.Cands), workers, func(i int) {
		sc := sh.Cands[i]
		cctx, sp := obs.Start(ctx, "dse.candidate", obs.Int("index", int64(sc.Index)))
		outs[i] = evalShardCandidate(cctx, sc, sh, prepared, h, cache)
		sp.End()
	})
	if err := guard.CtxErr(ctx); err != nil {
		return nil, fmt.Errorf("dse: shard interrupted: %w", err)
	}
	return outs, nil
}

// evalShardCandidate resolves one shard candidate: a verified store hit
// skips even the chip rebuild; otherwise the chip is rebuilt, the
// candidate evaluated, and a successful row stored.
func evalShardCandidate(ctx context.Context, sc ShardCandidate, sh Shard, models []*perfsim.Prepared, h Hardening, cache *rstore.Cache) ShardOutcome {
	out := ShardOutcome{Index: sc.Index}
	var fp string
	if cache != nil {
		fp = CandidateFingerprint(sc.Config, sh.Models, sh.Spec, sh.Opt)
		if row, ok := lookupStoredRow(ctx, cache, fp, sc.Point); ok {
			out.Row = &row
			return out
		}
	}
	c, err := chip.BuildCached(sc.Config)
	if err == nil {
		cand := Candidate{Point: sc.Point, Chip: c, PeakTOPS: c.PeakTOPS()}
		var row RuntimeRow
		row, err = evalWithRetry(ctx, cand, models, sh.Spec, sh.Opt, h)
		if err == nil {
			storeRow(ctx, cache, fp, row)
			out.Row = &row
			return out
		}
	}
	out.Kind, out.Err = guard.Kind(err), err.Error()
	return out
}
