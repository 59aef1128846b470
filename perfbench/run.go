package main

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"time"
)

// setupRepeats is how many times a timed run sets its workload up; setup_s
// is the median of their process CPU times. CPU time leaves out what the
// hypervisor steals from the VM: the wall time of the same set-up doubled
// in some runs on a shared host, with every repeat of the run slowed alike.
const setupRepeats = 5

// runTimed is the end-to-end run: set up (several times), measure for the
// window with all tracing off, check outputs, and set the metrics.
func runTimed(ctx context.Context, w workload, in inputs, o options, rep *report) error {
	slog.SetLogLoggerLevel(slog.LevelWarn) // the store logs every open at info
	var setups []float64
	var sess session
	for i := 0; i < setupRepeats; i++ {
		if sess != nil {
			if err := sess.close(); err != nil {
				return err
			}
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		sw := startWatch()
		s, err := w.setup(ctx, in, o, rep.tally)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		_, cpu := sw.stop()
		setups = append(setups, cpu.Seconds())
		sess = s
	}
	t := rep.tally
	err := sess.measure(ctx, time.Now().Add(seconds(o)), nil, t)
	if err == nil {
		err = sess.verify(ctx, t)
	}
	if cerr := sess.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	rep.set("setup_s", "s", median(setups))
	rep.samples["setup_s"] = len(setups)
	primary := t.latencies(w.primary)
	rep.setPct("op_ms_p50", "ms", primary, 0.5)
	rep.setPct("op_ms_p90", "ms", primary, 0.9)
	rep.set("results_per_s", "1/s", ratio(float64(t.results.Load()), t.busy.Seconds()))
	rep.set("cpu_ms_per_result", "ms", ratio(ms(t.cpu), float64(t.results.Load())))
	rep.set("max_rss_mb", "MiB", maxRSSMB())
	rep.setPct("rss_mb_p50", "MiB", t.rss, 0.5)

	// The same figures under the names each workload is known by.
	switch w.name {
	case "cold_sweep":
		rep.setPct("sweep_ms_p50", "ms", primary, 0.5)
	case "warm_study":
		rep.set("evals_per_s", "1/s", rep.metrics["results_per_s"].Value)
	case "store_resume":
		rep.setPct("write_pass_ms_p50", "ms", t.latencies("write_pass"), 0.5)
		rep.setPct("read_pass_ms_p50", "ms", primary, 0.5)
	case "serve_mixed":
		rep.set("req_per_s", "1/s", rep.metrics["results_per_s"].Value)
		rep.setPct("sim_ms_p50", "ms", primary, 0.5)
		rep.setPct("sim_ms_p90", "ms", primary, 0.9)
		rep.setPct("build_ms_p50", "ms", t.latencies("build"), 0.5)
		rep.setPct("build_ms_p90", "ms", t.latencies("build"), 0.9)
	}
	return nil
}

func seconds(o options) time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// Shares of the window in a traced run: an untraced segment, then the same
// operations traced; the probes follow.
const (
	untracedShare = 0.3
	tracedShare   = 0.3
)

// runTraced is the per-layer run: the same operations untraced and then
// traced (spans from the benchmark's own calls, counter and allocation
// deltas per operation), followed by timed calls into each layer.
func runTraced(ctx context.Context, w workload, in inputs, o options, rep *report) (err error) {
	slog.SetLogLoggerLevel(slog.LevelWarn)
	sess, err := w.setup(ctx, in, o, rep.tally)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer func() {
		if cerr := sess.close(); err == nil {
			err = cerr
		}
	}()
	window := seconds(o)

	plain := newTally()
	if err := sess.measure(ctx, time.Now().Add(time.Duration(untracedShare*float64(window))), nil, plain); err != nil {
		return err
	}
	if err := sess.verify(ctx, plain); err != nil {
		return err
	}

	tr := newTracer(fmt.Sprintf("%s-seed%d", w.name, in.seed))
	traced := newTally()
	counts := counterSnapshot()
	mem := memStats()
	if err := sess.measure(ctx, time.Now().Add(time.Duration(tracedShare*float64(window))), tr, traced); err != nil {
		return err
	}
	md := memSince(mem)
	deltas := counts.since()
	if err := sess.verify(ctx, traced); err != nil {
		return err
	}
	rep.tally.merge(plain)
	rep.tally.merge(traced)

	ops := 0
	for _, lat := range traced.lat {
		ops += len(lat)
	}
	perOp := func(name string) float64 { return perCall(float64(deltas[name]), ops) }
	rep.set("host.alloc_mb_per_pass", "MiB", perCall(float64(md.bytes)/(1<<20), ops))
	rep.set("host.gc_cycles_per_pass", "count", perCall(float64(md.gcs), ops))
	rep.set("trace.overhead_ratio", "ratio",
		ratio(median(traced.latencies(w.primary)), median(plain.latencies(w.primary))))
	sum := tr.summary()
	rep.set("trace.layer_coverage", "ratio", sum.rootCoverage())
	rep.set("dse.enumerate_share", "ratio", ratio(sum.totalMS("dse.enumerate"), sum.rootTotalMS()))

	rep.set("memarray.builds", "count", perOp("memarray.builds"))
	rep.set("memarray.orgs_scored", "count", perOp("memarray.evals"))
	rep.set("chip.builds", "count", perOp("chip.builds"))
	rep.set("chip.build_failures", "count", perOp("chip.build_failures"))
	lookups := deltas["chip.build_cache_hits"] + deltas["chip.build_cache_misses"]
	rep.set("chip.build_cache_lookups", "count", perCall(float64(lookups), ops))
	rep.set("chip.build_cache_hit_ratio", "ratio", ratio(float64(deltas["chip.build_cache_hits"]), float64(lookups)))
	storeLookups := deltas["rstore.hits"] + deltas["rstore.misses"]
	rep.set("rstore.hits", "count", perOp("rstore.hits"))
	rep.set("rstore.misses", "count", perOp("rstore.misses"))
	rep.set("rstore.write_failures", "count", perOp("rstore.write_failures"))
	rep.set("rstore.hit_ratio", "ratio", ratio(float64(deltas["rstore.hits"]), float64(storeLookups)))
	rep.set("serve.shed_ratio", "ratio", ratio(float64(deltas["serve.shed_total"]), float64(deltas["serve.requests_total"])))

	if err := runProbes(ctx, in, sess.probes(), rep); err != nil {
		return err
	}
	path, err := tr.write(workDir, hostStamp(o, in), sum.layers)
	if err != nil {
		return err
	}
	fmt.Println("trace", path)
	for _, lt := range sum.layers {
		fmt.Printf("self %-28s calls=%-6d total_ms=%-12.3f self_ms=%.3f\n", lt.Name, lt.Calls, lt.TotalMS, lt.SelfMS)
	}
	return nil
}
