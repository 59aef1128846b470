package memarray

import (
	"math"
	"testing"
)

// scoreOrg evaluates one explicit organization through evalOrg, deriving
// subarrays per bank and active subarrays the way Build does.
func scoreOrg(cfg Config, banks, rp, wp, rows, cols int) *Array {
	bankBits := float64(cfg.CapacityBytes) * 8 / float64(banks)
	subsPerBank := math.Ceil(bankBits / float64(rows*cols))
	activeSubs := math.Ceil(float64(cfg.BlockBytes) * 8 / float64(cols))
	cellArea, cellW, cellH := cellGeometry(cfg.Node, cfg.Cell, rp+wp)
	return evalOrg(cfg, banks, rp, wp, rows, cols, int(subsPerBank), int(activeSubs), cellArea, cellW, cellH)
}

// TestLatencyTargetFindsCheapestFeasibleOrg pins the latency target as a
// filter on every organization: each case has a witness organization that
// meets the target, so Build must succeed, meet the target, and cost no
// more than the witness. A search that checks the target only on the
// cheapest subarray shape of each (banks, ports) fails all three.
func TestLatencyTargetFindsCheapestFeasibleOrg(t *testing.T) {
	cases := []struct {
		capBytes          int64
		block             int
		targetPS          float64
		banks, rows, cols int
	}{
		{1 << 20, 256, 500, 4, 16, 64},
		{4 << 20, 64, 1000, 16, 64, 256},
		{4 << 20, 64, 2000, 16, 128, 512},
	}
	for _, tc := range cases {
		cfg := cfg28(tc.capBytes, tc.block)
		cfg.TargetLatencyPS = tc.targetPS
		w := scoreOrg(cfg, tc.banks, 1, 1, tc.rows, tc.cols)
		if w.accessPS > tc.targetPS || w.cyclePS > cfg.CyclePS*2.05 {
			t.Fatalf("%dB/%dB: witness %+v is not feasible: %.0fps, cycle %.0fps", tc.capBytes, tc.block, w.Org, w.accessPS, w.cyclePS)
		}
		witnessCost := w.areaUM2 * (w.readPJ + w.writePJ)
		a, err := Build(cfg)
		if err != nil {
			t.Errorf("%dB/%dB <=%.0fps: %v (witness %+v at %.0fps, %.1fmm2)", tc.capBytes, tc.block, tc.targetPS, err, w.Org, w.accessPS, w.areaUM2/1e6)
			continue
		}
		if a.accessPS > tc.targetPS {
			t.Errorf("%dB/%dB: latency %.0fps exceeds target %.0fps", tc.capBytes, tc.block, a.accessPS, tc.targetPS)
		}
		if cost := a.areaUM2 * (a.readPJ + a.writePJ); cost > witnessCost {
			t.Errorf("%dB/%dB <=%.0fps: chose %+v (%.1fmm2, %.0fps, cost %.4g), witness %+v costs %.4g (%.1fmm2, %.0fps)",
				tc.capBytes, tc.block, tc.targetPS, a.Org, a.areaUM2/1e6, a.accessPS, cost, w.Org, witnessCost, w.areaUM2/1e6, w.accessPS)
		}
	}
}
