// Package dse implements the paper's §III design-space exploration of
// "Brawny and Wimpy" datacenter inference accelerators: the Table I
// constraint set, the (X, N, Tx, Ty) sweep with automatic pruning, the
// chip-level analysis of Fig. 8, and the runtime performance/efficiency
// study of Figs. 9-10 (paired with the perfsim performance simulator).
//
// # Pipeline
//
// The sweep is a pipeline of pure stages, each with one ctx-first entry
// point. EnumerateParallel builds every design point under the
// constraints and keeps the feasible ones; Frontier and SecondRound narrow
// the candidate set the way the paper does (Candidates is enumerate plus
// frontier, the set cmd/dse and NewStudy share); RuntimeStudyHardened
// prepares the workload models once and simulates each surviving
// candidate over them; Winner ranks the rows by a metric
// (ByAchievedTOPS, ByTOPSPerWatt, ...); FormatRuntimeRows and
// RuntimeRowsCSV render them. cmd/dse drives the whole pipeline per paper
// figure.
//
// # Concurrency contract
//
// Candidate evaluations are independent, so both enumeration
// (EnumerateParallel) and the runtime study (Hardening.Workers) fan work
// across a bounded goroutine pool. The engine is deterministic by
// construction: results are collected by candidate index, not completion
// order, and checkpoint files marshal with sorted keys — so the formatted
// tables, CSV output and checkpoint bytes are identical at every worker
// count, including a serial run. Workers <= 1 runs inline on the caller's
// goroutine (the historical serial path). Workers claim candidates in
// blocks of Hardening.BlockSize consecutive indices (0 = DefaultBlockSize),
// which keeps each worker's evaluation scratch and the study's prepared
// workload tables hot without affecting output bytes. See DESIGN.md §9 and
// §14.
//
// Each study prepares its workload graphs once (perfsim.Prepare) and every
// candidate evaluation runs into pooled result scratch, so the per-candidate
// hot path is allocation-free in the steady state; see PERFORMANCE.md.
//
// Repeated chip constructions across sweeps and figure drivers hit the
// chip.BuildCached memo; cache traffic is visible as
// chip.build_cache_hits / chip.build_cache_misses under -metrics.
//
// # Error contract
//
// Every candidate failure is classified under the guard taxonomy
// (guard.ErrInvalidConfig, ErrInfeasible, ErrNonFinite, ErrTimeout,
// ErrCanceled, ErrCandidatePanic) and absorbed: one bad candidate costs
// one row, never the sweep. A hardened study fails outright only when
// every candidate fails, or when its context is canceled — in which case
// it returns the rows completed so far alongside the classified context
// error, after flushing any armed checkpoint so the sweep can resume.
package dse
