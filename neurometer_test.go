package neurometer

import (
	"context"
	"strings"
	"testing"
)

func quickChip(t *testing.T) *Chip {
	t.Helper()
	c, err := Build(Config{
		Name: "api-test", TechNM: 28, ClockHz: 700e6,
		Tx: 1, Ty: 2,
		Core: CoreConfig{
			NumTUs: 2, TURows: 32, TUCols: 32, TUDataType: Int8, HasSU: true,
			Mem: []MemSegment{{Name: "spad", CapacityBytes: 2 << 20}},
		},
		NoCBisectionGBps: 128,
		OffChip:          []OffChipPort{{Kind: HBMPort, GBps: 256}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPublicBuildAndReport(t *testing.T) {
	c := quickChip(t)
	if c.PeakTOPS() <= 0 || c.AreaMM2() <= 0 || c.TDPW() <= 0 {
		t.Fatalf("degenerate chip: %v", c)
	}
	rep := c.Report()
	for _, want := range []string{"TOPS", "breakdown", "timing"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestPublicTOPSTargetSearch(t *testing.T) {
	c, err := Build(Config{
		Name: "search", TechNM: 28, TargetTOPS: 10,
		Tx: 1, Ty: 1,
		Core: CoreConfig{
			NumTUs: 2, TURows: 64, TUCols: 64, TUDataType: Int8,
			Mem: []MemSegment{{Name: "spad", CapacityBytes: 2 << 20}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.PeakTOPS(); got < 9.9 || got > 10.1 {
		t.Errorf("TOPS target search: got %.2f, want ~10", got)
	}
}

func TestPublicWorkloads(t *testing.T) {
	if got := len(Workloads()); got != 3 {
		t.Fatalf("Workloads() = %d, want 3", got)
	}
	g, err := Workload("resnet")
	if err != nil {
		t.Fatal(err)
	}
	if g.MACs() <= 0 {
		t.Errorf("resnet has no MACs")
	}
	if _, err := Workload("gpt"); err == nil {
		t.Errorf("unknown workload must fail")
	}
}

func TestPublicSimulate(t *testing.T) {
	c := quickChip(t)
	g, err := Workload("inception")
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateCtx(context.Background(), c, g, 4, DefaultSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.FPS <= 0 || res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("bad simulation: %+v", res)
	}
	eff := c.Efficiency(res.AchievedTOPS*1e12, res.Activity)
	if eff.TOPSPerWatt <= 0 || eff.PowerW >= c.TDPW() {
		t.Errorf("bad efficiency: %+v", eff)
	}
	batch, r2, err := LatencyLimitedBatchCtx(context.Background(), c, g, 10e-3, DefaultSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	if batch < 1 || (batch > 1 && r2.LatencySec > 10e-3) {
		t.Errorf("latency-limited batch %d violates the bound (%.1fms)", batch, r2.LatencySec*1e3)
	}
}

func TestPublicSparsityStudy(t *testing.T) {
	r, err := SparsityStudy(TU8, DefaultSparseWorkload(), 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Gain <= 1 {
		t.Errorf("TU8 at 90%% sparsity should gain, got %.2f", r.Gain)
	}
	if len(DefaultSparsities()) == 0 {
		t.Errorf("no default sparsities")
	}
}

func TestPublicRuntimePower(t *testing.T) {
	c := quickChip(t)
	w, bd := c.RuntimePower(Activity{TUMACsPerSec: 1e12})
	if w <= 0 || bd == nil {
		t.Errorf("runtime power: %g", w)
	}
}
