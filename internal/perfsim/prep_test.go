package perfsim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/maclib"
	"neurometer/internal/periph"
	"neurometer/internal/workloads"
)

// batchChips builds a spread of datacenter design points, cycling the
// Table-I axes so a candidate batch exercises different array sizes, TU
// counts, and tile grids.
func batchChips(t *testing.T, n int) []*chip.Chip {
	t.Helper()
	xs := []int{32, 64, 128, 256}
	ns := []int{1, 2, 4}
	grids := [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 4}}
	chips := make([]*chip.Chip, n)
	for i := range chips {
		g := grids[i%len(grids)]
		chips[i] = dcPoint(t, xs[i%len(xs)], ns[i%len(ns)], g[0], g[1])
	}
	return chips
}

// headline is the comparable projection of a Result: everything but the
// Layers slice (SimulateInto never records per-layer stats). Equality on it
// is exact float64 bit comparison, pinning the determinism contract.
type headline struct {
	Batch                                                       int
	Cycles, TimeSec, LatencySec, FPS, AchievedTOPS, Utilization float64
	Activity                                                    chip.Activity
}

func stripLayers(r Result) headline {
	return headline{
		Batch: r.Batch, Cycles: r.Cycles, TimeSec: r.TimeSec,
		LatencySec: r.LatencySec, FPS: r.FPS, AchievedTOPS: r.AchievedTOPS,
		Utilization: r.Utilization, Activity: r.Activity,
	}
}

// The candidate-batch tests below drive the loop the simulate-batch
// endpoint and the dse sweep run: one Prepared workload, one scratch
// Result, and a (*Prepared).SimulateInto call per candidate chip.

// simulateCandidates runs that loop and copies each candidate's headline
// metrics out of the scratch before the next candidate overwrites it.
// errs[i] is candidate i's failure; a failed candidate fails its own slot
// only.
func simulateCandidates(p *Prepared, batch int, opt Options, chips []*chip.Chip) (hs []headline, errs []error) {
	hs = make([]headline, len(chips))
	errs = make([]error, len(chips))
	var res Result
	for i, c := range chips {
		if errs[i] = p.SimulateInto(context.Background(), c, batch, opt, &res); errs[i] == nil {
			hs[i] = stripLayers(res)
		}
	}
	return hs, errs
}

func mustPrepare(t *testing.T, g *graph.Graph) *Prepared {
	t.Helper()
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSimulateBatchBitIdentical pins the core determinism contract: for
// every chip, batch size, and option set, the SimulateInto loop produces
// exactly the float64 bits SimulateCtx produces, although every candidate
// reuses the scratch the previous one wrote.
func TestSimulateBatchBitIdentical(t *testing.T) {
	chips := batchChips(t, 9)
	for _, g := range workloads.All() {
		p := mustPrepare(t, g)
		for _, batch := range []int{1, 16, 256} {
			for _, opt := range []Options{DefaultOptions(), NoOptimizations(), {SpaceToDepth: true}} {
				hs, errs := simulateCandidates(p, batch, opt, chips)
				for i, c := range chips {
					if errs[i] != nil {
						t.Fatalf("%s batch %d chip %d: %v", g.Name, batch, i, errs[i])
					}
					want, err := SimulateCtx(context.Background(), c, g, batch, opt)
					if err != nil {
						t.Fatal(err)
					}
					if hs[i] != stripLayers(*want) {
						t.Errorf("%s batch %d chip %d: prepared result diverges\n got %+v\nwant %+v",
							g.Name, batch, i, hs[i], stripLayers(*want))
					}
				}
			}
		}
	}
}

// TestSimulateBatchZeroAllocs proves the steady-state prepared loop is
// allocation-free: prepared workload, one scratch Result, no per-candidate
// or per-layer garbage.
func TestSimulateBatchZeroAllocs(t *testing.T) {
	chips := batchChips(t, 8)
	p := mustPrepare(t, workloads.ResNet50())
	ctx := context.Background()
	opt := DefaultOptions()
	var res Result
	// Warm the scratch so the measured loop starts in steady state.
	if err := p.SimulateInto(ctx, chips[0], 16, opt, &res); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, c := range chips {
			if err := p.SimulateInto(ctx, c, 16, opt, &res); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state prepared evaluation allocates: %v allocs/op (want 0)", allocs)
	}
}

// TestSimulateBatchMidBatchLayerFault targets a perfsim.layer fault at one
// candidate mid-loop: that candidate fails with the injected error, every
// other candidate's result is untouched and bit-identical to a clean run.
func TestSimulateBatchMidBatchLayerFault(t *testing.T) {
	g := workloads.ResNet50()
	p := mustPrepare(t, g)
	chips := batchChips(t, 5)
	opt := DefaultOptions()

	want, errs := simulateCandidates(p, 16, opt, chips)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("clean run, candidate %d: %v", i, err)
		}
	}

	// Fire once, partway through candidate 2's layer walk.
	boom := errors.New("injected layer fault")
	defer guard.Arm("perfsim.layer", guard.Fault{
		Skip:  2*len(g.Layers) + 7,
		Count: 1,
		Err:   boom,
	})()
	got, errs := simulateCandidates(p, 16, opt, chips)
	for i := range chips {
		if i == 2 {
			if !errors.Is(errs[2], boom) {
				t.Errorf("candidate 2: want injected fault, got %v", errs[2])
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("candidate %d: unexpected error %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("candidate %d: result disturbed by candidate 2's fault", i)
		}
	}
}

// TestSimulateBatchMidBatchPanic does the same with a panic at the layer
// site: RecoverTo converts it to that candidate's error, the rest of the
// loop completes.
func TestSimulateBatchMidBatchPanic(t *testing.T) {
	g := workloads.ResNet50()
	p := mustPrepare(t, g)
	chips := batchChips(t, 4)
	defer guard.Arm("perfsim.layer", guard.Fault{
		Skip:  len(g.Layers) + 3, // mid candidate 1
		Count: 1,
		Panic: true,
	})()
	_, errs := simulateCandidates(p, 8, DefaultOptions(), chips)
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if !errors.Is(errs[1], guard.ErrCandidatePanic) {
		t.Errorf("candidate 1: want guard.ErrCandidatePanic from the injected panic, got %v", errs[1])
	}
	if failed != 1 {
		t.Errorf("%d candidates failed, want 1", failed)
	}
}

// TestSimulateBatchPerCandidateValidation: a nil chip fails its slot only.
func TestSimulateBatchPerCandidateValidation(t *testing.T) {
	chips := batchChips(t, 3)
	chips[1] = nil
	_, errs := simulateCandidates(mustPrepare(t, workloads.ResNet50()), 4, DefaultOptions(), chips)
	if !errors.Is(errs[1], guard.ErrInvalidConfig) {
		t.Errorf("nil chip: want invalid-input error, got %v", errs[1])
	}
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("healthy candidates failed: %v / %v", errs[0], errs[2])
	}
}

// TestSimulateBatchBatchLevelValidation: nil and invalid graphs fail
// Prepare, and a non-positive batch fails every SimulateInto call, before
// any candidate is simulated.
func TestSimulateBatchBatchLevelValidation(t *testing.T) {
	g := workloads.ResNet50()
	var res Result
	if err := mustPrepare(t, g).SimulateInto(context.Background(), batchChips(t, 1)[0], 0, DefaultOptions(), &res); !errors.Is(err, guard.ErrInvalidConfig) {
		t.Errorf("batch 0: want invalid-input error, got %v", err)
	}
	if _, err := Prepare(nil); !errors.Is(err, guard.ErrInvalidConfig) {
		t.Errorf("nil graph: want invalid-input error, got %v", err)
	}
	bad := *g
	bad.Layers = nil
	if _, err := Prepare(&bad); !errors.Is(err, guard.ErrInvalidConfig) {
		t.Errorf("invalid graph: want invalid-input error, got %v", err)
	}
}

// TestSimulateBatchCtxCancel: a canceled ctx aborts a prepared simulation
// with the classified error.
func TestSimulateBatchCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var res Result
	err := mustPrepare(t, workloads.ResNet50()).SimulateInto(ctx, batchChips(t, 1)[0], 4, DefaultOptions(), &res)
	if !errors.Is(err, guard.ErrCanceled) {
		t.Errorf("want guard.ErrCanceled, got %v", err)
	}
}

// TestLatencyLimitedIntoMatchesCtx pins the prepared latency search against
// the historical per-call path.
func TestLatencyLimitedIntoMatchesCtx(t *testing.T) {
	c := dcPoint(t, 64, 2, 2, 4)
	for _, g := range workloads.All() {
		p, err := Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		var a, b Result
		gotB, gotR, err := p.LatencyLimitedInto(context.Background(), c, 0.010, DefaultOptions(), &a, &b)
		if err != nil {
			t.Fatal(err)
		}
		wantB, wantR, err := LatencyLimitedBatchCtx(context.Background(), c, g, 0.010, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if gotB != wantB {
			t.Errorf("%s: batch %d, want %d", g.Name, gotB, wantB)
		}
		if stripLayers(*gotR) != stripLayers(*wantR) {
			t.Errorf("%s: latency-limited result diverges", g.Name)
		}
	}
}

// BenchmarkSimulateInto measures the prepared path's candidate throughput:
// one Prepare, then a SimulateInto loop over 64 chips into one scratch
// Result. cmd/bench runs the same loop next to BenchmarkSimulateSingle and
// persists both to BENCH_*.json.
func BenchmarkSimulateInto(b *testing.B) {
	chips := benchChips(b, 64)
	p, err := Prepare(workloads.ResNet50())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opt := DefaultOptions()
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range chips {
			if err := p.SimulateInto(ctx, c, 16, opt, &res); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	perCand := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(chips))
	b.ReportMetric(1e9/perCand, "candidates/sec")
}

// BenchmarkSimulateSingle is the per-candidate baseline for
// BenchmarkSimulateInto: the same 64 chips through SimulateCtx one at a
// time, full per-call prep and result allocation.
func BenchmarkSimulateSingle(b *testing.B) {
	chips := benchChips(b, 64)
	g := workloads.ResNet50()
	ctx := context.Background()
	opt := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range chips {
			if _, err := SimulateCtx(ctx, c, g, 16, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	perCand := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(chips))
	b.ReportMetric(1e9/perCand, "candidates/sec")
}

// benchChips is batchChips for benchmarks.
func benchChips(b *testing.B, n int) []*chip.Chip {
	b.Helper()
	xs := []int{32, 64, 128, 256}
	ns := []int{1, 2, 4}
	grids := [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 4}}
	chips := make([]*chip.Chip, n)
	for i := range chips {
		grid := grids[i%len(grids)]
		c, err := chip.Build(chip.Config{
			Name:   fmt.Sprintf("(%d,%d,%d,%d)", xs[i%len(xs)], ns[i%len(ns)], grid[0], grid[1]),
			TechNM: 28, ClockHz: 700e6, Tx: grid[0], Ty: grid[1],
			Core: chip.CoreConfig{
				NumTUs: ns[i%len(ns)], TURows: xs[i%len(xs)], TUCols: xs[i%len(xs)],
				TUDataType: maclib.Int8, HasSU: true,
				Mem: []chip.MemSegment{{Name: "spad", CapacityBytes: int64(32<<20) / int64(grid[0]*grid[1])}},
			},
			NoCBisectionGBps: 256,
			OffChip:          []chip.OffChipPort{{Kind: periph.HBMPort, GBps: 700}},
		})
		if err != nil {
			b.Fatal(err)
		}
		chips[i] = c
	}
	return chips
}
