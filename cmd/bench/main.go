// Command bench runs the repo's pinned performance benchmarks and emits a
// schema-versioned JSON record, growing the committed benchmark trajectory
// (BENCH_<date>.json files; see PERFORMANCE.md).
//
// The three pinned measurements:
//
//	simulate_single    per-candidate perfsim.SimulateCtx throughput
//	                   (ResNet-50, batch 16, a fixed 64-chip candidate set)
//	simulate_into64    the prepared path over the same 64 candidates — one
//	                   perfsim.Prepare, then a (*Prepared).SimulateInto loop
//	                   into one scratch Result
//	fig10_sweep        wall clock of the full Fig. 10 runtime study
//	                   (frontier candidates, all three batch regimes)
//
// Flags:
//
//	-smoke           shorter measurement windows (CI mode; noisier, and the
//	                 record is marked mode=smoke so trajectories do not mix)
//	-out file        write the JSON record here (default stdout)
//	-compare file    compare against a prior record and fail (exit 1) on
//	                 candidates/sec regression beyond -max-regress, or when
//	                 the record lacks a gated metric
//	-max-regress f   allowed fractional throughput regression (default 0.15)
//
// Numbers from different machines are not comparable; the record embeds the
// host fingerprint (Go version, OS/arch, GOMAXPROCS) so a trajectory can be
// filtered to like-for-like entries.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"neurometer/internal/chip"
	"neurometer/internal/dse"
	"neurometer/internal/perfsim"
	"neurometer/internal/workloads"
)

// schemaVersion identifies the BENCH_*.json layout. Bump it when a field
// changes meaning, so older records are recognized rather than misread.
// Version 2 renamed simulate_batch64_cands_per_sec and batch_speedup to
// simulate_into64_cands_per_sec and prepared_speedup.
const schemaVersion = 2

// Record is the whole benchmark JSON document.
type Record struct {
	SchemaVersion int     `json:"schema_version"`
	Date          string  `json:"date"` // UTC, YYYY-MM-DD
	Mode          string  `json:"mode"` // "full" or "smoke"
	Host          Host    `json:"host"`
	Results       Results `json:"results"`
}

// Host fingerprints the measurement environment.
type Host struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Results holds the pinned measurements. Throughputs are gated by -compare;
// the sweep wall clock is informational. Its timing starts after
// enumeration, so it covers the three runtime studies only, not chip
// construction.
type Results struct {
	SimulateSingleCandsPerSec float64 `json:"simulate_single_cands_per_sec"`
	SimulateInto64CandsPerSec float64 `json:"simulate_into64_cands_per_sec"`
	PreparedSpeedup           float64 `json:"prepared_speedup"`
	Fig10SweepMS              float64 `json:"fig10_sweep_ms"`
}

func main() {
	smoke := flag.Bool("smoke", false, "shorter measurement windows (CI mode)")
	out := flag.String("out", "", "write the JSON record to this file (default stdout)")
	compare := flag.String("compare", "", "prior record to gate against")
	maxRegress := flag.Float64("max-regress", 0.15, "allowed fractional candidates/sec regression vs -compare")
	flag.Parse()

	rec, err := run(*smoke)
	if err != nil {
		log.Fatalf("bench: %v", err)
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		log.Fatalf("bench: encode: %v", err)
	}
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b)
	} else if err := os.WriteFile(*out, b, 0o644); err != nil {
		log.Fatalf("bench: write %s: %v", *out, err)
	}
	if *compare != "" {
		if err := gate(rec, *compare, *maxRegress); err != nil {
			log.Fatalf("bench: %v", err)
		}
		fmt.Fprintf(os.Stderr, "bench: within %.0f%% of %s\n", *maxRegress*100, *compare)
	}
}

func run(smoke bool) (Record, error) {
	rec := Record{
		SchemaVersion: schemaVersion,
		Date:          time.Now().UTC().Format("2006-01-02"),
		Mode:          "full",
		Host: Host{
			Go:         runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
	window := 2 * time.Second
	if smoke {
		// Smoke windows must still be long enough that scheduler noise stays
		// well inside the CI gate's 15% margin on a busy runner.
		rec.Mode = "smoke"
		window = time.Second
	}

	chips, err := benchChips(64)
	if err != nil {
		return rec, err
	}
	g, err := workloads.ByName("resnet50")
	if err != nil {
		return rec, err
	}
	opt := perfsim.DefaultOptions()
	ctx := context.Background()

	// Pinned benchmark 1: per-candidate SimulateCtx throughput.
	single, err := measure(window, len(chips), func() error {
		for _, c := range chips {
			if _, serr := perfsim.SimulateCtx(ctx, c, g, 16, opt); serr != nil {
				return serr
			}
		}
		return nil
	})
	if err != nil {
		return rec, fmt.Errorf("simulate_single: %w", err)
	}
	rec.Results.SimulateSingleCandsPerSec = single

	// Pinned benchmark 2: the prepared path over the same candidate set.
	p, err := perfsim.Prepare(g)
	if err != nil {
		return rec, err
	}
	var res perfsim.Result
	into, err := measure(window, len(chips), func() error {
		for _, c := range chips {
			if serr := p.SimulateInto(ctx, c, 16, opt, &res); serr != nil {
				return serr
			}
		}
		return nil
	})
	if err != nil {
		return rec, fmt.Errorf("simulate_into64: %w", err)
	}
	rec.Results.SimulateInto64CandsPerSec = into
	rec.Results.PreparedSpeedup = into / single

	// Pinned benchmark 3: Fig. 10 sweep wall clock (best of 3 full runs, or
	// a single run in smoke mode — the study itself is the window).
	runs := 3
	if smoke {
		runs = 1
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < runs; i++ {
		cs := dse.TableI()
		cands := dse.SecondRound(dse.Candidates(ctx, cs, false, 1), cs.TOPSCap)
		start := time.Now()
		if _, err := dse.Fig10Hardened(ctx, cands, dse.DefaultModels(), dse.Hardening{Workers: 1}, ""); err != nil {
			return rec, fmt.Errorf("fig10_sweep: %w", err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	rec.Results.Fig10SweepMS = float64(best.Nanoseconds()) / 1e6
	return rec, nil
}

// measure runs fn repeatedly for at least the window after one warmup pass
// and returns throughput in candidates/sec (fn evaluates perPass candidates
// per call).
func measure(window time.Duration, perPass int, fn func() error) (float64, error) {
	if err := fn(); err != nil { // warmup: pools populated, caches warm
		return 0, err
	}
	var passes int
	start := time.Now()
	for time.Since(start) < window {
		if err := fn(); err != nil {
			return 0, err
		}
		passes++
	}
	elapsed := time.Since(start).Seconds()
	return float64(passes*perPass) / elapsed, nil
}

// benchChips builds the pinned 64-point candidate set: the cross product of
// TU lengths, TU counts, and tile grids the perfsim benchmarks use, under
// the Table I constraint set. The set is fixed — changing it invalidates
// the benchmark trajectory.
func benchChips(n int) ([]*chip.Chip, error) {
	cs := dse.TableI()
	xs := []int{32, 64, 128, 256}
	ns := []int{1, 2, 4}
	grids := [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 4}}
	var chips []*chip.Chip
	for _, x := range xs {
		for _, nn := range ns {
			for _, gr := range grids {
				cfg := cs.Config(dse.Point{X: x, N: nn, Tx: gr[0], Ty: gr[1]})
				cfg.AreaBudgetMM2, cfg.PowerBudgetW = 0, 0 // unbudgeted: every point must build
				c, err := chip.BuildCached(cfg)
				if err != nil {
					return nil, fmt.Errorf("bench chip (%d,%d,%d,%d): %w", x, nn, gr[0], gr[1], err)
				}
				chips = append(chips, c)
				if len(chips) == n {
					return chips, nil
				}
			}
		}
	}
	return chips, nil
}

// gate fails when the new record's candidates/sec throughput regresses more
// than maxRegress below the baseline, or when the baseline lacks a gated
// metric (a missing or zero value would otherwise turn its gate off
// silently). Wall clocks are not gated, and records from a different
// schema are rejected rather than compared.
func gate(rec Record, baselinePath string, maxRegress float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Record
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	if base.SchemaVersion != schemaVersion {
		return fmt.Errorf("baseline %s has schema %d, this binary writes %d",
			baselinePath, base.SchemaVersion, schemaVersion)
	}
	check := func(name string, got, want float64) error {
		if want <= 0 {
			return fmt.Errorf("baseline %s has no %s value: a gated metric cannot be compared", baselinePath, name)
		}
		floor := want * (1 - maxRegress)
		fmt.Fprintf(os.Stderr, "bench: %-28s %12.0f cands/sec (baseline %12.0f, floor %12.0f)\n",
			name, got, want, floor)
		if got < floor {
			return fmt.Errorf("%s regressed: %.0f cands/sec vs baseline %.0f (>%0.f%% drop)",
				name, got, want, maxRegress*100)
		}
		return nil
	}
	if err := check("simulate_single", rec.Results.SimulateSingleCandsPerSec, base.Results.SimulateSingleCandsPerSec); err != nil {
		return err
	}
	return check("simulate_into64", rec.Results.SimulateInto64CandsPerSec, base.Results.SimulateInto64CandsPerSec)
}
