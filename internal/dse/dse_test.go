package dse

import (
	"context"
	"math/bits"
	"strings"
	"testing"

	"neurometer/internal/perfsim"
)

// sweep is computed once; the full enumeration builds ~100 chips.
var sweep = EnumerateParallel(context.Background(), TableI(), 1)

func findCand(t *testing.T, p Point) Candidate {
	t.Helper()
	for _, c := range sweep {
		if c.Point == p {
			return c
		}
	}
	t.Fatalf("point %s not in feasible set", p)
	return Candidate{}
}

func TestEnumerateProducesFeasibleSet(t *testing.T) {
	cs := TableI()
	if len(sweep) < 20 {
		t.Fatalf("feasible set suspiciously small: %d", len(sweep))
	}
	for _, c := range sweep {
		if c.PeakTOPS > cs.TOPSCap*1.01 {
			t.Errorf("%s exceeds the TOPS cap: %.1f", c.Point, c.PeakTOPS)
		}
		if c.AreaMM2 > cs.AreaBudgetMM2 {
			t.Errorf("%s exceeds the area budget: %.1f", c.Point, c.AreaMM2)
		}
		if c.TDPW > cs.PowerBudgetW {
			t.Errorf("%s exceeds the power budget: %.1f", c.Point, c.TDPW)
		}
	}
}

func TestNamedPaperPointsFeasible(t *testing.T) {
	for _, p := range []Point{
		{256, 1, 1, 1}, {128, 4, 1, 1}, {64, 2, 2, 4}, {64, 4, 1, 2}, {8, 4, 4, 8},
	} {
		findCand(t, p)
	}
}

func TestFig8MemoryDominatesArea(t *testing.T) {
	// §III-B.1 first insight: on-chip memory takes the largest die area
	// among architectural components for datacenter inference chips.
	for _, c := range Frontier(sweep, TableI().TOPSCap) {
		bd := c.Chip.AreaBreakdown()
		cores := bd.Find("cores")
		mem := cores.Child("mem").AreaMM2
		for _, name := range []string{"tu", "vu", "su", "cdb"} {
			if child := cores.Child(name); child != nil && child.AreaMM2 > mem {
				t.Errorf("%s: %s (%.1fmm2) exceeds mem (%.1fmm2)", c.Point, name, child.AreaMM2, mem)
			}
		}
	}
}

func TestFig8WimpierNeedsMoreAreaAtSamePeak(t *testing.T) {
	// At the 92-TOPS target, the wimpier the design the larger the die.
	seq := []Point{{64, 2, 2, 4}, {32, 4, 4, 4}, {16, 4, 8, 8}}
	prev := 0.0
	for _, p := range seq {
		c := findCand(t, p)
		if c.AreaMM2 <= prev {
			t.Errorf("%s should be bigger than the brawnier twin: %.1f <= %.1f",
				p, c.AreaMM2, prev)
		}
		prev = c.AreaMM2
	}
}

func TestFig8PeakEfficiencyFavorsBrawny(t *testing.T) {
	// Peak TOPS/W and TOPS/TCO degrade with wimpier designs at equal peak.
	brawny := findCand(t, Point{64, 2, 2, 4})
	wimpy := findCand(t, Point{16, 4, 8, 8})
	if wimpy.PeakTOPSPerW >= brawny.PeakTOPSPerW {
		t.Errorf("wimpy peak TOPS/W should trail: %.3f vs %.3f",
			wimpy.PeakTOPSPerW, brawny.PeakTOPSPerW)
	}
	if wimpy.PeakTOPSPerTCO >= brawny.PeakTOPSPerTCO {
		t.Errorf("wimpy peak TOPS/TCO should trail")
	}
	// (128,4,1,1) is the best TOPS/TCO among the 92-TOPS designs (Fig 8b).
	var best Candidate
	for _, c := range sweep {
		if c.PeakTOPS > 91 && c.PeakTOPSPerTCO > best.PeakTOPSPerTCO {
			best = c
		}
	}
	if best.Point != (Point{128, 4, 1, 1}) {
		t.Errorf("92-TOPS TCO optimum: got %s, paper (128,4,1,1)", best.Point)
	}
}

func TestFrontierKeepsNamedPoints(t *testing.T) {
	fr := Frontier(sweep, TableI().TOPSCap)
	want := map[Point]bool{
		{64, 2, 2, 4}: false, {64, 4, 1, 2}: false, {8, 4, 4, 8}: false,
		{128, 4, 1, 1}: false, {256, 1, 1, 1}: false,
	}
	for _, c := range fr {
		if _, ok := want[c.Point]; ok {
			want[c.Point] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("frontier must keep %s", p)
		}
	}
	if len(fr) > len(sweep) {
		t.Errorf("frontier must not grow the set: %d vs %d", len(fr), len(sweep))
	}
}

func TestSecondRoundPrunesLowPerf(t *testing.T) {
	pruned := SecondRound(sweep, TableI().TOPSCap)
	if len(pruned) >= len(sweep) {
		t.Errorf("second round should drop the 4x4-class points")
	}
	for _, c := range pruned {
		if c.Point.X == 4 {
			t.Errorf("4x4 designs should be pruned (paper: <1/12 peak): %s", c.Point)
		}
	}
}

func TestFig10SmallBatchClaims(t *testing.T) {
	// The §III-B.2 headline claims at batch 1, evaluated on the paper's
	// named points.
	points := []Point{
		{256, 1, 1, 1}, {128, 4, 1, 1}, {64, 2, 2, 4}, {64, 4, 1, 2},
		{32, 4, 2, 2}, {8, 4, 4, 8},
	}
	var cands []Candidate
	for _, p := range points {
		cands = append(cands, findCand(t, p))
	}
	rows, err := RuntimeStudyHardened(context.Background(), cands, DefaultModels(), BatchSpec{Fixed: 1}, perfsim.DefaultOptions(), Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(p Point) RuntimeRow {
		for _, r := range rows {
			if r.Point == p {
				return r
			}
		}
		t.Fatalf("row %s missing", p)
		return RuntimeRow{}
	}
	// Highest utilization among the named points: (8,4,4,8).
	util, err := Winner(rows, ByUtilization)
	if err != nil {
		t.Fatal(err)
	}
	if util.Point != (Point{8, 4, 4, 8}) {
		t.Errorf("utilization winner: got %s, paper (8,4,4,8)", util.Point)
	}
	// Highest throughput: the 8-core brawny design (64,2,2,4).
	thr, err := Winner(rows, ByAchievedTOPS)
	if err != nil {
		t.Fatal(err)
	}
	if thr.Point != (Point{64, 2, 2, 4}) {
		t.Errorf("throughput winner: got %s, paper (64,2,2,4)", thr.Point)
	}
	// The efficiency/throughput tradeoff: (64,4,1,2) sacrifices a modest
	// share of achieved TOPS for >1.8x TOPS/TCO.
	eff, thr2 := get(Point{64, 4, 1, 2}), get(Point{64, 2, 2, 4})
	if ratio := eff.AchievedTOPS / thr2.AchievedTOPS; ratio < 0.65 || ratio >= 1 {
		t.Errorf("achieved ratio %.2f out of band (paper ~0.84)", ratio)
	}
	if gain := eff.TOPSPerTCO / thr2.TOPSPerTCO; gain < 1.8 {
		t.Errorf("TOPS/TCO gain %.2fx, want >1.8x (paper 2.1x)", gain)
	}
	if gain := eff.TOPSPerWatt / thr2.TOPSPerWatt; gain < 1.0 {
		t.Errorf("TOPS/W gain %.2fx, want >1x (paper 1.3x)", gain)
	}
}

func TestFig10LargeBatchEnergyFavors32(t *testing.T) {
	// §III-B.2: at medium/large batch the energy-efficiency optimum drops
	// from 64x64 to 32x32.
	points := []Point{
		{64, 2, 2, 4}, {64, 4, 1, 2}, {32, 4, 4, 4}, {32, 2, 4, 8}, {16, 4, 8, 8},
	}
	var cands []Candidate
	for _, p := range points {
		cands = append(cands, findCand(t, p))
	}
	rows, err := RuntimeStudyHardened(context.Background(), cands, DefaultModels(), BatchSpec{Fixed: 256}, perfsim.DefaultOptions(), Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Winner(rows, ByTOPSPerWatt)
	if err != nil {
		t.Fatal(err)
	}
	if w.Point.X != 32 {
		t.Errorf("large-batch energy winner should be 32x32-based, got %s", w.Point)
	}
}

func TestFig9LatencyLimitedBatches(t *testing.T) {
	_, limits, err := Fig9(TableI(), DefaultModels(), []int{1, 16, 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		model string
		paper int
	}{
		{"resnet", 16}, {"nasnet", 4}, {"inception", 32},
	} {
		got := limits[tc.model]
		if got < tc.paper/2 || got > tc.paper*2 {
			t.Errorf("%s latency-limited batch %d vs paper %d", tc.model, got, tc.paper)
		}
	}
}

func TestFig7OptimizationGains(t *testing.T) {
	rows, err := Fig7(TableI(), DefaultModels(), []int{1, 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Gain() <= 1.0 {
			t.Errorf("%s bs=%d: optimizations must help (gain %.2f)", r.Model, r.Batch, r.Gain())
		}
	}
}

func TestBatchSpecString(t *testing.T) {
	if (BatchSpec{Fixed: 4}).String() != "bs=4" {
		t.Errorf("fixed spec string")
	}
	if (BatchSpec{LatencyBound: 0.01}).String() != "bs=latency<10ms" {
		t.Errorf("latency spec string: %s", BatchSpec{LatencyBound: 0.01})
	}
	if (Point{1, 2, 3, 4}).String() != "(1,2,3,4)" {
		t.Errorf("point string")
	}
}

func TestEdgeStudy(t *testing.T) {
	rows, err := EdgeStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("edge space too small: %d designs", len(rows))
	}
	cs := EdgeConstraints()
	for _, r := range rows {
		if r.AreaMM2 > cs.AreaBudgetMM2 || r.TDPW > cs.PowerBudgetW {
			t.Errorf("%s exceeds the edge budget: %.1fmm2 %.2fW", r.Point, r.AreaMM2, r.TDPW)
		}
		if r.LatencyMS <= 0 || r.FPS <= 0 || r.Utilization <= 0 {
			t.Errorf("%s: degenerate runtime", r.Point)
		}
	}
	// Edge inference at batch 1 on sub-TOPS chips is compute-starved, so
	// utilizations run far higher than the datacenter points'.
	var minUtil = 1.0
	for _, r := range rows {
		if r.Utilization < minUtil {
			minUtil = r.Utilization
		}
	}
	if minUtil < 0.5 {
		t.Errorf("edge utilizations should be high, min %.2f", minUtil)
	}
	// More peak always means lower latency within this space.
	best, worst := rows[0], rows[0]
	for _, r := range rows {
		if r.PeakTOPS > best.PeakTOPS {
			best = r
		}
		if r.PeakTOPS < worst.PeakTOPS {
			worst = r
		}
	}
	if best.LatencyMS >= worst.LatencyMS {
		t.Errorf("the biggest edge chip should be the fastest: %.1fms vs %.1fms",
			best.LatencyMS, worst.LatencyMS)
	}
}

func TestFormatRuntimeRows(t *testing.T) {
	rows := []RuntimeRow{{
		Point: Point{64, 2, 2, 4}, PeakTOPS: 91.75, AchievedTOPS: 20,
		Utilization: 0.22, PowerW: 35, TOPSPerWatt: 0.57, TOPSPerTCO: 1e-5,
	}}
	s := FormatRuntimeRows(rows)
	for _, want := range []string{"(64,2,2,4)", "91.75", "22.0%", "point"} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted rows missing %q:\n%s", want, s)
		}
	}
}

func TestWinnerEmpty(t *testing.T) {
	if _, err := Winner(nil, ByAchievedTOPS); err == nil {
		t.Errorf("empty rows must fail")
	}
}

func TestFig8RowsCarryBreakdowns(t *testing.T) {
	cands := Frontier(sweep, TableI().TOPSCap)[:3]
	rows := Fig8(cands)
	for _, r := range rows {
		if r.AreaBreakdown == nil || r.AreaBreakdown.Find("mem") == nil {
			t.Errorf("%s: missing breakdown", r.Point)
		}
		if !r.AreaBreakdown.Consistent(1e-6) {
			t.Errorf("%s: inconsistent breakdown", r.Point)
		}
	}
}

// TestLatencyLimitedBatchMatchesExhaustiveScan is the exhaustive oracle
// for the latency-limited batch search: on every feasible Table I chip and
// every default model, perfsim.LatencyLimitedBatchCtx must pick what a full
// SimulateCtx scan of the power-of-two batches 1, 2, ..., 512 picks under
// the documented rule — the largest batch within the bound, else 1 — with
// bit-identical headline metrics. Besides the paper's 10 ms SLO, a 1 ms and
// a 1 s bound reach both ends of the rule (batch 1 over the bound, and the
// 512 cap). The search stops at the first probe over the bound, so the scan
// also checks that latency never falls as the batch grows, the property
// that makes stopping early exact.
func TestLatencyLimitedBatchMatchesExhaustiveScan(t *testing.T) {
	ctx := context.Background()
	opt := perfsim.DefaultOptions()
	picked := map[int]int{}
	batchOneMisses := 0
	for _, cand := range sweep {
		for _, g := range DefaultModels() {
			var scan []*perfsim.Result
			for b := 1; b <= 512; b *= 2 {
				r, err := perfsim.SimulateCtx(ctx, cand.Chip, g, b, opt)
				if err != nil {
					t.Fatalf("%s %s batch %d: %v", cand.Point, g.Name, b, err)
				}
				if n := len(scan); n > 0 && r.LatencySec < scan[n-1].LatencySec {
					t.Errorf("%s %s: latency falls from batch %d to %d", cand.Point, g.Name, b/2, b)
				}
				scan = append(scan, r)
			}
			for _, bound := range []float64{1e-3, 10e-3, 1} {
				want := 1
				for _, r := range scan {
					if r.LatencySec <= bound {
						want = r.Batch
					}
				}
				picked[want]++
				if scan[0].LatencySec > bound {
					batchOneMisses++
				}
				got, res, err := perfsim.LatencyLimitedBatchCtx(ctx, cand.Chip, g, bound, opt)
				if err != nil {
					t.Fatalf("%s %s bound %gs: %v", cand.Point, g.Name, bound, err)
				}
				if got != want {
					t.Errorf("%s %s bound %gs: latency-limited batch %d, exhaustive scan %d",
						cand.Point, g.Name, bound, got, want)
					continue
				}
				w := scan[bits.TrailingZeros(uint(want))]
				if res.Batch != w.Batch || res.Cycles != w.Cycles || res.LatencySec != w.LatencySec ||
					res.FPS != w.FPS || res.AchievedTOPS != w.AchievedTOPS ||
					res.Utilization != w.Utilization || res.Activity != w.Activity {
					t.Errorf("%s %s bound %gs: batch %d result differs from the scan's", cand.Point, g.Name, bound, got)
				}
				if len(res.Layers) != len(g.Layers) {
					t.Errorf("%s %s: %d layer stats, want %d", cand.Point, g.Name, len(res.Layers), len(g.Layers))
				}
			}
		}
	}
	if picked[512] == 0 || batchOneMisses == 0 {
		t.Errorf("the bounds miss an end of the rule: %d cases at the 512 cap, %d with batch 1 over the bound",
			picked[512], batchOneMisses)
	}
	t.Logf("%d chips x %d models; batches picked: %v", len(sweep), len(DefaultModels()), picked)
}
