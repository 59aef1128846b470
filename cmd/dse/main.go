// Command dse reproduces the paper's §III datacenter case study: the
// design-space sweep of brawny and wimpy inference accelerators under the
// Table I constraints, with the figures selectable via -fig:
//
//	-fig 7   software-optimization ablation (throughput before/after)
//	-fig 8   chip-level area/TDP breakdowns and peak efficiencies
//	-fig 9   batch sweep + 10ms latency-limited batch on (64,2,2,4)
//	-fig 10  runtime performance/efficiency across design points
//
// Observability flags (see the README's Observability section):
//
//	-trace f.json   Chrome trace-event JSON of the sweep (Perfetto loadable)
//	-metrics        metrics snapshot on exit (candidates pruned, layers
//	                simulated, eval-latency histogram, ...)
//	-cpuprofile f   pprof CPU profile
//	-memprofile f   pprof heap profile
//	-v              debug-level progress logging
//
// Robustness flags (see the README's Failure model section):
//
//	-checkpoint p        record -fig 10 sweep progress at p.<regime>.json
//	-resume              continue an interrupted sweep from -checkpoint
//	-candidate-timeout d per-candidate evaluation deadline (e.g. 30s)
//	-retries n           retry timed-out candidates up to n times
//	-result-store dir    persistent content-addressed result cache for the
//	                -fig 10 sweep: verified read-through (checksum +
//	                fingerprint + finiteness), corrupt entries quarantined,
//	                every store fault degrades to evaluation — output is
//	                byte-identical with or without the store
//
// Parallelism and export (see DESIGN.md §9):
//
//	-workers n      candidate-evaluation pool size (default GOMAXPROCS;
//	                1 = serial). Output is byte-identical at any n.
//	-block n        candidates claimed per worker at a time in the -fig 10
//	                sweep (0 = default 16). Larger blocks keep per-worker
//	                scratch hot; output is byte-identical at any n.
//	-csv prefix     also write -fig 10 rows to prefix.<regime>.csv
//
// Distributed studies (see DESIGN.md §11):
//
//	-fleet host1:8080,host2:8080   shard the -fig 10 sweep across running
//	                neurometerd workers, with leases, retries, hedged
//	                dispatch, and per-worker circuit breakers. Candidates
//	                the fleet cannot resolve are evaluated locally, and
//	                output stays byte-identical to a -workers 1 run at any
//	                fleet size and under any worker failures.
//	-fleet-shard-size n / -fleet-lease d / -fleet-hedge-after d /
//	-fleet-max-attempts n   tune the fleet envelope; invalid combinations
//	                (non-positive lease, hedge ≥ lease, attempts < 1) fail
//	                fast at startup with exit 2
//
// SIGINT interrupts a sweep gracefully: in-flight state is flushed to the
// checkpoint (when armed) and the process exits with kind=canceled.
//
// Exit codes: 0 success; 2 invalid config or infeasible study; 130
// canceled (SIGINT); 1 any other failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"neurometer/internal/dse"
	"neurometer/internal/fleet"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/rstore"
)

// hardenFlags carries the robustness and parallelism flag values into run.
type hardenFlags struct {
	checkpoint string
	resume     bool
	timeout    time.Duration
	retries    int
	workers    int
	block      int
	csv        string
	store      string

	fleet         string
	fleetShard    int
	fleetLease    time.Duration
	fleetHedge    time.Duration
	fleetAttempts int
}

// dispatcher builds the fleet coordinator's Dispatch hook from the -fleet
// flags, or nil when -fleet is unset (pure local evaluation).
func (hf hardenFlags) dispatcher() (func(context.Context, dse.Shard, func(dse.ShardOutcome)), error) {
	if hf.fleet == "" {
		return nil, nil
	}
	var workers []string
	for _, w := range strings.Split(hf.fleet, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workers = append(workers, w)
		}
	}
	coord, err := fleet.New(fleet.Config{
		Workers:     workers,
		ShardSize:   hf.fleetShard,
		LeaseTTL:    hf.fleetLease,
		HedgeAfter:  hf.fleetHedge,
		MaxAttempts: hf.fleetAttempts,
	})
	if err != nil {
		return nil, err
	}
	return coord.Dispatch, nil
}

func main() {
	fig := flag.Int("fig", 10, "figure to reproduce: 7, 8, 9 or 10; 0 = ablation studies; -1 = edge-scenario sweep")
	full := flag.Bool("full", false, "evaluate the full feasible set instead of the frontier")
	var hf hardenFlags
	flag.StringVar(&hf.checkpoint, "checkpoint", "", "checkpoint path prefix for the -fig 10 sweep (one file per batch regime)")
	flag.BoolVar(&hf.resume, "resume", false, "resume from an existing -checkpoint instead of failing on it")
	flag.DurationVar(&hf.timeout, "candidate-timeout", 0, "per-candidate evaluation deadline (0 = unbounded)")
	flag.IntVar(&hf.retries, "retries", 0, "retries for retryable (timed-out) candidate failures")
	flag.IntVar(&hf.workers, "workers", dse.DefaultWorkers, "candidate-evaluation workers (default GOMAXPROCS; 1 = serial; output is identical at any count)")
	flag.IntVar(&hf.block, "block", 0, "candidates claimed per worker at a time in the -fig 10 sweep (0 = default; output is identical at any size)")
	flag.StringVar(&hf.csv, "csv", "", "also write -fig 10 rows as CSV at <prefix>.<regime>.csv")
	flag.StringVar(&hf.store, "result-store", "", "persistent per-candidate result store directory for the -fig 10 sweep (verified read-through cache; faults degrade to evaluation)")
	flag.StringVar(&hf.fleet, "fleet", "", "comma-separated neurometerd worker URLs: distribute the -fig 10 sweep across them")
	flag.IntVar(&hf.fleetShard, "fleet-shard-size", fleet.DefaultShardSize, "candidates per fleet shard")
	flag.DurationVar(&hf.fleetLease, "fleet-lease", fleet.DefaultLeaseTTL, "per-shard lease TTL before requeue")
	flag.DurationVar(&hf.fleetHedge, "fleet-hedge-after", fleet.DefaultHedgeAfter, "hedge a straggling shard on a second worker after this long (negative disables)")
	flag.IntVar(&hf.fleetAttempts, "fleet-max-attempts", fleet.DefaultMaxAttempts, "max attempts per shard before local fallback")
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stop, err := obsFlags.Setup()
	if err != nil {
		log.Fatal(err)
	}
	// Fleet flags fail fast (exit 2) before any model work starts.
	if hf.fleet != "" {
		if err := fleet.ValidateFlags(hf.fleetLease, hf.fleetHedge, hf.fleetAttempts); err != nil {
			guard.PrintErr("dse", err)
			stop()
			os.Exit(guard.ExitCode(err))
		}
	}
	// SIGINT cancels the run context; the sweep loops notice it between
	// candidates (and inside perfsim between layers), flush any armed
	// checkpoint, and unwind with guard.ErrCanceled.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	runErr := run(ctx, os.Stdout, *fig, *full, hf)
	stopSignals()
	stop() // flush profiles/trace/metrics before any exit
	if runErr != nil {
		guard.PrintErr("dse", runErr)
		if errors.Is(runErr, guard.ErrCanceled) && hf.checkpoint != "" {
			fmt.Fprintf(os.Stderr, "dse: progress saved; rerun with -resume -checkpoint %s to continue\n", hf.checkpoint)
		}
		// 2 = invalid/infeasible, 130 = canceled (SIGINT), 1 = anything else.
		os.Exit(guard.ExitCode(runErr))
	}
}

func run(ctx context.Context, w io.Writer, fig int, full bool, hf hardenFlags) error {
	ctx, root := obs.Start(ctx, "dse.run")
	root.SetInt("fig", int64(fig))
	defer root.End()

	if hf.resume && hf.checkpoint == "" {
		return guard.Invalid("dse: -resume requires -checkpoint")
	}
	if hf.checkpoint != "" && !hf.resume {
		// Refuse to silently merge with a leftover checkpoint: the user
		// either resumes it explicitly or removes it.
		for _, regime := range dse.Fig10Regimes {
			p := hf.checkpoint + "." + regime + ".json"
			if _, err := os.Stat(p); err == nil {
				return guard.Invalid("dse: checkpoint %s already exists; pass -resume to continue it or remove it", p)
			}
		}
	}

	cs := dse.TableI()
	switch fig {
	case -1:
		rows, err := dse.EdgeStudy()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "edge sweep (28nm, 16mm2, 2W, LPDDR 12.8GB/s): single-image inference")
		fmt.Fprintf(w, "%-12s %9s %9s %7s | %20s | %20s\n",
			"point", "peakTOPS", "area-mm2", "TDP-W", "resnet50 (ms, fps/W)", "mobilenet (ms, fps/W)")
		for _, r := range rows {
			fmt.Fprintf(w, "%-12s %9.2f %9.1f %7.2f | %9.1f %9.1f | %9.2f %9.1f\n",
				r.Point, r.PeakTOPS, r.AreaMM2, r.TDPW,
				r.LatencyMS, r.FPSPerWatt, r.MobileLatencyMS, r.MobileFPSPerWatt)
		}
	case 0:
		s, err := dse.AllAblations(cs)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, s)
	case 7:
		rows, err := dse.Fig7(cs, dse.DefaultModels(), []int{1, 4, 16, 64, 256})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %6s %12s %12s %7s\n", "model", "batch", "fps-before", "fps-after", "gain")
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %6d %12.1f %12.1f %6.2fx\n", r.Model, r.Batch, r.FPSBefore, r.FPSAfter, r.Gain())
		}
	case 8:
		cands := dse.Candidates(ctx, cs, full, hf.workers)
		rows := dse.Fig8(cands)
		fmt.Fprintf(w, "%-14s %9s %9s %8s %9s %12s  breakdown (mm2)\n",
			"point", "peakTOPS", "area", "TDP", "TOPS/W", "TOPS/TCO")
		for _, r := range rows {
			bd := r.AreaBreakdown
			cores := bd.Find("cores")
			fmt.Fprintf(w, "%-14s %9.2f %8.1f %7.1fW %9.3f %12.6f  tu=%.0f mem=%.0f vu=%.0f su=%.0f cdb=%.0f noc=%.0f\n",
				r.Point, r.PeakTOPS, r.AreaMM2, r.TDPW, r.PeakTOPSPerW, r.PeakTOPSPerTCO*1e3,
				cores.Child("tu").AreaMM2, cores.Child("mem").AreaMM2,
				cores.Child("vu").AreaMM2, cores.Child("su").AreaMM2,
				cores.Child("cdb").AreaMM2, bd.Child("noc").AreaMM2)
		}
	case 9:
		rows, limits, err := dse.Fig9(cs, dse.DefaultModels(), []int{1, 2, 4, 8, 16, 32, 64, 128, 256})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %6s %10s %10s %s\n", "model", "batch", "fps", "latency", "SLO10")
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %6d %10.1f %8.2fms %v\n", r.Model, r.Batch, r.FPS, r.LatencyMS, r.MeetsSLO10)
		}
		fmt.Fprintln(w, "\n10ms latency-limited batch sizes (paper: resnet=16, nasnet=4, inception=32):")
		for _, m := range []string{"resnet", "nasnet", "inception"} {
			fmt.Fprintf(w, "  %-10s %d\n", m, limits[m])
		}
	case 10:
		cands := dse.SecondRound(dse.Candidates(ctx, cs, full, hf.workers), cs.TOPSCap)
		h := dse.Hardening{CandidateTimeout: hf.timeout, MaxRetries: hf.retries, Workers: hf.workers, BlockSize: hf.block}
		dispatch, err := hf.dispatcher()
		if err != nil {
			return err
		}
		h.Dispatch = dispatch
		if hf.store != "" {
			st, err := rstore.OpenDisk(hf.store)
			if err != nil {
				return err
			}
			h.Results = rstore.NewCache(st)
			defer h.Results.Close()
		}
		out, err := dse.Fig10Hardened(ctx, cands, dse.DefaultModels(), h, hf.checkpoint)
		if err != nil {
			return err
		}
		for _, name := range dse.Fig10Regimes {
			rows := out[name]
			if hf.csv != "" {
				p := hf.csv + "." + name + ".csv"
				if err := os.WriteFile(p, []byte(dse.RuntimeRowsCSV(rows)), 0o644); err != nil {
					return fmt.Errorf("dse: write csv: %w", err)
				}
			}
			fmt.Fprintf(w, "== Fig 10(%s) ==\n%s", name, dse.FormatRuntimeRows(rows))
			report := func(label string, f func(dse.RuntimeRow) float64) {
				best, err := dse.Winner(rows, f)
				if err == nil {
					fmt.Fprintf(w, "  best %-12s %s\n", label, best.Point)
				}
			}
			report("throughput", dse.ByAchievedTOPS)
			report("utilization", dse.ByUtilization)
			report("TOPS/W", dse.ByTOPSPerWatt)
			report("TOPS/TCO", dse.ByTOPSPerTCO)
			fmt.Fprintln(w)
		}
	default:
		return fmt.Errorf("unknown figure %d", fig)
	}
	return nil
}
