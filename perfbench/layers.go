package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"time"

	"neurometer/internal/apicfg"
	"neurometer/internal/chip"
	"neurometer/internal/dse"
	"neurometer/internal/memarray"
	"neurometer/internal/noc"
	"neurometer/internal/perfsim"
	"neurometer/internal/rstore"
	"neurometer/internal/serve"
	"neurometer/internal/workloads"
)

// probeSet is what the per-layer probes time: the workload's own chips and
// study candidates.
type probeSet struct {
	chips []*chip.Chip
	study []dse.Candidate // nil: the frontier of the probe's enumeration
}

// Probe sizes: enough calls for a median, few enough that the probes stay a
// few seconds on two cores.
const (
	maxProbeChips = 64
	perfsimChips  = 16
	nocRepeats    = 20
	graphRepeats  = 5
	studyRepeats  = 3
	storeEntries  = 48
	serveBuilds   = 12
)

// fig10Specs are the paper's three Fig. 10 batch regimes, timed one by one.
var fig10Specs = map[string]dse.BatchSpec{
	"a-small":  {Fixed: 1},
	"b-medium": {LatencyBound: 10e-3},
	"c-large":  {Fixed: 256},
}

// runProbes times direct calls into each layer's public functions on the
// workload's inputs and sets the per-layer metrics they give. A call that
// fails is counted as a failed operation.
func runProbes(ctx context.Context, in inputs, ps probeSet, rep *report) error {
	chips := ps.chips
	if len(chips) > maxProbeChips {
		chips = chips[:maxProbeChips]
	}
	probeBuilds(chips, rep)
	frontier := probeEnumerate(ctx, in, rep)
	study := ps.study
	if study == nil {
		study = frontier
	}
	rows := probeStudy(ctx, in, study, rep)
	probePerfsim(ctx, in, chips, rep)
	if err := probeStore(rows, rep); err != nil {
		return err
	}
	return probeServe(ctx, in, rep)
}

// probeBuilds rebuilds each chip cold with chip.Build, and each of its core
// memory arrays from its spec (Chip.Core.Mem.Segments[i].Data.Cfg),
// interleaved chip by chip, in alternating order, so the two see the same
// host conditions; then each chip's network from its config.
func probeBuilds(chips []*chip.Chip, rep *report) {
	t := rep.tally
	var maUS, chipMS, nocUS []float64
	var maSum, chipSum float64
	var maAlloc, chipAlloc memDelta
	arrays := func(c *chip.Chip) {
		if c.Core.Mem == nil {
			return
		}
		before := memStats()
		for _, seg := range c.Core.Mem.Segments {
			for _, a := range []*memarray.Array{seg.Data, seg.Tags} {
				if a == nil {
					continue
				}
				start := time.Now()
				_, err := memarray.Build(a.Cfg)
				d := time.Since(start)
				t.check(err)
				maUS = append(maUS, us(d))
				maSum += ms(d)
			}
		}
		maAlloc.add(memSince(before))
	}
	build := func(c *chip.Chip) {
		before := memStats()
		start := time.Now()
		_, err := chip.Build(c.Cfg)
		d := ms(time.Since(start))
		chipAlloc.add(memSince(before))
		t.check(err)
		chipMS = append(chipMS, d)
		chipSum += d
	}
	for i, c := range chips {
		if i%2 == 0 {
			arrays(c)
			build(c)
		} else {
			build(c)
			arrays(c)
		}
		start := time.Now()
		for r := 0; r < nocRepeats; r++ {
			_, err := noc.Build(c.NoC.Cfg)
			if r == 0 {
				t.check(err)
			}
		}
		nocUS = append(nocUS, us(time.Since(start))/nocRepeats)
	}
	rep.setPct("memarray.build_us_p50", "us", maUS, 0.5)
	rep.set("memarray.alloc_kb_per_build", "KiB", perCall(float64(maAlloc.bytes)/1024, len(maUS)))
	rep.setPct("chip.build_ms_p50", "ms", chipMS, 0.5)
	rep.setPct("chip.build_ms_p90", "ms", chipMS, 0.9)
	rep.set("chip.alloc_mb_per_build", "MiB", perCall(float64(chipAlloc.bytes)/(1<<20), len(chipMS)))
	rep.set("chip.allocs_per_build", "count", perCall(float64(chipAlloc.mallocs), len(chipMS)))
	rep.set("chip.memarray_share", "ratio", ratio(maSum, chipSum))
	rep.setPct("noc.build_us_p50", "us", nocUS, 0.5)
}

// probeEnumerate sweeps the constraint set from a cold build cache, on the
// pool and serially (efficiency = serial / (workers x pool wall)), and
// returns the study candidates of the pool's sweep.
func probeEnumerate(ctx context.Context, in inputs, rep *report) []dse.Candidate {
	chip.ResetBuildCache()
	start := time.Now()
	dse.EnumerateParallel(ctx, in.cs, 1)
	serial := time.Since(start)
	chip.ResetBuildCache()
	tried, feasible, pruned := counter("dse.candidates_enumerated"), counter("dse.candidates_feasible"), counter("dse.candidates_pruned")
	start = time.Now()
	all := dse.EnumerateParallel(ctx, in.cs, in.workers)
	pool := time.Since(start)
	rep.set("dse.enumerate_ms", "ms", ms(pool))
	rep.set("dse.enumerate_pool_efficiency", "ratio", ratio(serial.Seconds(), float64(in.workers)*pool.Seconds()))
	rep.set("dse.candidates_tried", "count", float64(counter("dse.candidates_enumerated")-tried))
	rep.set("dse.candidates_feasible", "count", float64(counter("dse.candidates_feasible")-feasible))
	rep.set("dse.candidates_pruned", "count", float64(counter("dse.candidates_pruned")-pruned))
	start = time.Now()
	frontier := dse.SecondRound(dse.Frontier(all, in.cs.TOPSCap), in.cs.TOPSCap)
	rep.set("dse.frontier_ms", "ms", ms(time.Since(start)))
	return frontier
}

// probeStudy times each Fig. 10 regime over the study set on the pool, and
// the pool's efficiency against one worker over all three; it returns the
// last regime's rows.
func probeStudy(ctx context.Context, in inputs, study []dse.Candidate, rep *report) []dse.RuntimeRow {
	t := rep.tally
	opt := perfsim.DefaultOptions()
	var poolTotal, serialTotal time.Duration
	var rows []dse.RuntimeRow
	for _, regime := range dse.Fig10Regimes {
		var times []float64
		for r := 0; r < studyRepeats; r++ {
			start := time.Now()
			out, err := dse.RuntimeStudyHardened(ctx, study, in.models, fig10Specs[regime], opt, dse.Hardening{Workers: in.workers})
			d := time.Since(start)
			if err == nil && len(out) != len(study) {
				err = fmt.Errorf("probe study %s: %d rows for %d candidates", regime, len(out), len(study))
			}
			t.check(err)
			times = append(times, ms(d))
			poolTotal += d
			rows = out
		}
		rep.set("dse.study_ms."+regime, "ms", median(times))
		start := time.Now()
		_, err := dse.RuntimeStudyHardened(ctx, study, in.models, fig10Specs[regime], opt, dse.Hardening{Workers: 1})
		serialTotal += time.Since(start)
		t.check(err)
	}
	rep.set("dse.study_pool_efficiency", "ratio",
		ratio(serialTotal.Seconds()*studyRepeats, float64(in.workers)*poolTotal.Seconds()))
	return rows
}

// probePerfsim times graph construction, preparation, the prepared
// simulation paths the dse study uses, and the unprepared SimulateCtx the
// server uses.
func probePerfsim(ctx context.Context, in inputs, chips []*chip.Chip, rep *report) {
	t := rep.tally
	var graphUS, prepUS []float64
	for _, name := range serveModels {
		for r := 0; r < graphRepeats; r++ {
			start := time.Now()
			g, err := workloads.ByName(name)
			graphUS = append(graphUS, us(time.Since(start)))
			t.check(err)
			if err != nil {
				continue
			}
			start = time.Now()
			_, err = perfsim.Prepare(g)
			prepUS = append(prepUS, us(time.Since(start)))
			t.check(err)
		}
	}
	rep.setPct("workloads.graph_build_us", "us", graphUS, 0.5)
	rep.setPct("perfsim.prepare_us", "us", prepUS, 0.5)

	if len(chips) > perfsimChips {
		chips = chips[:perfsimChips]
	}
	opt := perfsim.DefaultOptions()
	var intoUS, limitedUS, ctxUS []float64
	var a, b perfsim.Result
	var mallocs uint64
	for _, g := range in.models {
		p, err := perfsim.Prepare(g)
		t.check(err)
		if err != nil {
			continue
		}
		for _, c := range chips {
			for _, batch := range []int{1, 256} {
				start := time.Now()
				err := p.SimulateInto(ctx, c, batch, opt, &a)
				intoUS = append(intoUS, us(time.Since(start)))
				t.check(err)
			}
			start := time.Now()
			_, _, err := p.LatencyLimitedInto(ctx, c, 10e-3, opt, &a, &b)
			limitedUS = append(limitedUS, us(time.Since(start)))
			t.check(err)

			before := memStats()
			start = time.Now()
			_, err = perfsim.SimulateCtx(ctx, c, g, 16, opt)
			ctxUS = append(ctxUS, us(time.Since(start)))
			mallocs += memSince(before).mallocs
			t.check(err)
		}
	}
	rep.setPct("perfsim.simulate_into_us_p50", "us", intoUS, 0.5)
	rep.setPct("perfsim.latency_limited_us_p50", "us", limitedUS, 0.5)
	rep.setPct("perfsim.simulate_ctx_us_p50", "us", ctxUS, 0.5)
	rep.set("perfsim.allocs_per_simulate", "count", perCall(float64(mallocs), len(ctxUS)))
}

// probeStore times the disk store's Put (write, fsync, rename) and Get
// (read, verify) on the study's own rows as payloads.
func probeStore(rows []dse.RuntimeRow, rep *report) error {
	t := rep.tally
	dir, err := tempDir("probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := rstore.OpenDisk(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	var putUS, getUS []float64
	payloads := make([][]byte, storeEntries)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("probe-row-%d", i))
		if len(rows) > 0 {
			payloads[i], err = json.Marshal(rows[i%len(rows)])
			if err != nil {
				return err
			}
		}
		start := time.Now()
		err := st.Put(fmt.Sprintf("probe-%d", i), payloads[i])
		putUS = append(putUS, us(time.Since(start)))
		t.check(err)
	}
	for i := range payloads {
		start := time.Now()
		got, err := st.Get(fmt.Sprintf("probe-%d", i))
		getUS = append(getUS, us(time.Since(start)))
		if err == nil && string(got) != string(payloads[i]) {
			err = fmt.Errorf("store probe: entry %d read back different bytes", i)
		}
		t.check(err)
	}
	rep.setPct("rstore.put_us_p50", "us", putUS, 0.5)
	rep.setPct("rstore.get_us_p50", "us", getUS, 0.5)
	return nil
}

// probeServe measures the server's overhead per request: the client's
// latency minus the direct library call on the same input.
func probeServe(ctx context.Context, in inputs, rep *report) error {
	t := rep.tally
	chips := map[string]*chip.Chip{}
	for _, p := range servePresets {
		c, err := buildPreset(p)
		if err != nil {
			return err
		}
		chips[p] = c
	}
	l, err := startLoopback(in.workers, nil)
	if err != nil {
		return err
	}
	defer func() { t.check(l.close()) }()

	var simOver, buildOver []float64
	for _, p := range servePresets {
		for _, m := range serveModels {
			for _, batch := range []int{1, 64} {
				q := simRequest{Preset: p, Workload: m, Batch: batch}
				// The first request per preset also builds its cached chip.
				if _, _, err := l.post(ctx, "/v1/perfsim/simulate", mustJSON(q)); err != nil {
					t.check(err)
					continue
				}
				start := time.Now()
				status, _, err := l.post(ctx, "/v1/perfsim/simulate", mustJSON(q))
				client := time.Since(start)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("serve probe simulate: status %d", status)
				}
				t.check(err)
				start = time.Now()
				_, err = simulateOn(ctx, chips[p], q)
				direct := time.Since(start)
				t.check(err)
				simOver = append(simOver, ms(client-direct))
			}
		}
	}
	r := rand.New(rand.NewSource(in.seed + 1))
	for i := 0; i < serveBuilds; i++ {
		raw := spaceConfig("probe", r.Intn(buildSpaceSize()))
		start := time.Now()
		status, _, err := l.post(ctx, "/v1/chip/build", mustJSON(serve.ChipRequest{Config: raw}))
		client := time.Since(start)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("serve probe build: status %d", status)
		}
		t.check(err)
		start = time.Now()
		cfg, err := apicfg.Resolve("", raw)
		if err == nil {
			_, err = chip.Build(cfg)
		}
		direct := time.Since(start)
		t.check(err)
		buildOver = append(buildOver, ms(client-direct))
	}
	rep.setPct("serve.sim_overhead_ms_p50", "ms", simOver, 0.5)
	rep.setPct("serve.build_overhead_ms_p50", "ms", buildOver, 0.5)
	return nil
}

func perCall(total float64, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return total / float64(calls)
}

// ratio is a/b, or 0 when the base b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
