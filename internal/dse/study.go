package dse

import (
	"context"

	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/perfsim"
	"neurometer/internal/workloads"
)

// Study is the job-facing handle over a runtime study: a serving layer (or
// any outer search loop driving NeuroMeter as an evaluation oracle) accepts
// a StudySpec over the wire, materializes it once into a deterministic
// candidate list, and gets a stable fingerprint that doubles as an
// idempotent job identity — two requests describing the same study resolve
// to the same fingerprint, the same checkpoint file, and byte-identical
// output.

// StudySpec describes a runtime study as pure data.
type StudySpec struct {
	// Constraints bounds the enumerated design space (TableI() for the
	// paper's datacenter sweep).
	Constraints Constraints
	// Full evaluates the whole feasible set; the default false reduces it
	// to the Fig. 8 frontier first (the cmd/dse default).
	Full bool
	// Spec selects the batch regime.
	Spec BatchSpec
	// Opt toggles the software optimizations.
	Opt perfsim.Options
	// Models names the workloads (workloads.ByName); empty = the full
	// Table II set.
	Models []string
}

// Study is a materialized, runnable StudySpec.
type Study struct {
	spec        StudySpec
	cands       []Candidate
	models      []*graph.Graph
	fingerprint string
}

// NewStudy resolves a spec into a runnable study: workloads are looked up
// by name, the design space is enumerated and reduced exactly as cmd/dse
// -fig 10 does (Candidates, then second-round pruning), and the study
// fingerprint is derived from the surviving candidate list. Unknown
// workload names and empty candidate sets fail with guard taxonomy errors
// so callers can map them to 400/422 directly.
func NewStudy(ctx context.Context, spec StudySpec) (*Study, error) {
	models := workloads.All()
	if len(spec.Models) > 0 {
		models = models[:0:0]
		for _, name := range spec.Models {
			g, err := workloads.ByName(name)
			if err != nil {
				return nil, guard.Invalid("dse: study: %v", err)
			}
			models = append(models, g)
		}
	}
	cands := SecondRound(Candidates(ctx, spec.Constraints, spec.Full, 1), spec.Constraints.TOPSCap)
	if err := guard.CtxErr(ctx); err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, guard.Infeasible("dse: study: no feasible candidates under the constraints")
	}
	return &Study{
		spec:        spec,
		cands:       cands,
		models:      models,
		fingerprint: StudyFingerprint(cands, models, spec.Spec, spec.Opt),
	}, nil
}

// Fingerprint identifies the study: everything that determines its output.
// Equal fingerprints mean interchangeable studies (and shareable
// checkpoints); the serving layer hashes it into the job ID.
func (s *Study) Fingerprint() string { return s.fingerprint }

// NumCandidates reports how many design points the study will evaluate.
func (s *Study) NumCandidates() int { return len(s.cands) }

// Run executes the study under the hardening envelope. A non-empty
// checkpointPath arms (or resumes) the checkpoint at that path, keyed by
// the study fingerprint — h.Checkpoint is overwritten in that case. An
// interrupted run (canceled ctx) returns the rows completed so far with the
// classified cause; because outcomes land in the checkpoint as they
// complete, rerunning with the same path resumes instead of recomputing and
// yields byte-identical rows to an uninterrupted run.
func (s *Study) Run(ctx context.Context, h Hardening, checkpointPath string) ([]RuntimeRow, error) {
	if checkpointPath != "" {
		ck, err := OpenCheckpoint(checkpointPath, s.fingerprint)
		if err != nil {
			return nil, err
		}
		h.Checkpoint = ck
	}
	return RuntimeStudyHardened(ctx, s.cands, s.models, s.spec.Spec, s.spec.Opt, h)
}
