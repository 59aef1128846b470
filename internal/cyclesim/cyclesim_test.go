package cyclesim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidation(t *testing.T) {
	if _, err := Run(Config{ArraySize: 0, M: 1, K: 1, N: 1}); err == nil {
		t.Errorf("zero array must fail")
	}
	if _, err := Run(Config{ArraySize: 8, M: 0, K: 1, N: 1}); err == nil {
		t.Errorf("zero M must fail")
	}
}

// TestMACsExact: the simulated useful MAC count must equal M*K*N exactly —
// the wavefront bookkeeping conserves work.
func TestMACsExact(t *testing.T) {
	for _, cfg := range []Config{
		{ArraySize: 8, M: 16, K: 8, N: 8},
		{ArraySize: 8, M: 100, K: 24, N: 17},
		{ArraySize: 16, M: 33, K: 100, N: 5},
		{ArraySize: 32, M: 7, K: 64, N: 96, DoubleBufferWeights: true},
		{ArraySize: 64, M: 196, K: 576, N: 64, DoubleBufferWeights: true},
	} {
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(cfg.M) * int64(cfg.K) * int64(cfg.N)
		if st.MACs != want {
			t.Errorf("%+v: MACs %d, want %d", cfg, st.MACs, want)
		}
	}
}

func TestMACsExactProperty(t *testing.T) {
	f := func(xSel, mRaw, kRaw, nRaw uint8) bool {
		sizes := []int{4, 8, 16, 32}
		cfg := Config{
			ArraySize: sizes[int(xSel)%len(sizes)],
			M:         int(mRaw)%200 + 1,
			K:         int(kRaw)%150 + 1,
			N:         int(nRaw)%150 + 1,
		}
		st, err := Run(cfg)
		if err != nil {
			return false
		}
		return st.MACs == int64(cfg.M)*int64(cfg.K)*int64(cfg.N) &&
			st.ActiveCellCycles == st.MACs &&
			st.ClockedCellCycles >= st.ActiveCellCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDoubleBufferingHelps: overlapped weight loads must strictly reduce
// cycles whenever there is more than one tile.
func TestDoubleBufferingHelps(t *testing.T) {
	base := Config{ArraySize: 16, M: 64, K: 64, N: 64}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	db := base
	db.DoubleBufferWeights = true
	fast, err := Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cycles >= plain.Cycles {
		t.Errorf("double buffering must help: %d vs %d", fast.Cycles, plain.Cycles)
	}
	// Exposed load cycles: all tiles pay without double buffering, only
	// the first with it.
	if plain.WeightLoadCycles != plain.Tiles*16 {
		t.Errorf("plain loads: %d, want %d", plain.WeightLoadCycles, plain.Tiles*16)
	}
	if fast.WeightLoadCycles != 16 {
		t.Errorf("double-buffered loads: %d, want 16", fast.WeightLoadCycles)
	}
}

// TestAnalyticalAgreement cross-validates the closed form used by the
// performance simulator against the cycle-accurate run: within 10% across a
// spread of shapes (the closed form rounds the wavefront overlap).
func TestAnalyticalAgreement(t *testing.T) {
	for _, cfg := range []Config{
		{ArraySize: 8, M: 100, K: 64, N: 64, DoubleBufferWeights: true},
		{ArraySize: 16, M: 49, K: 256, N: 128, DoubleBufferWeights: true},
		{ArraySize: 32, M: 196, K: 288, N: 96, DoubleBufferWeights: true},
		{ArraySize: 64, M: 196, K: 576, N: 256, DoubleBufferWeights: true},
		{ArraySize: 64, M: 784, K: 1152, N: 256, DoubleBufferWeights: true},
		{ArraySize: 32, M: 49, K: 64, N: 64},
		{ArraySize: 16, M: 400, K: 144, N: 32},
	} {
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ana := AnalyticalCycles(cfg)
		relErr := math.Abs(ana-float64(st.Cycles)) / float64(st.Cycles)
		if relErr > 0.10 {
			t.Errorf("%+v: analytical %.0f vs simulated %d (%.1f%% off)",
				cfg, ana, st.Cycles, relErr*100)
		}
	}
}

// TestUtilizationShape: streaming more rows per tile amortizes the
// wavefront, so utilization rises with M; small arrays reach higher
// utilization at small M.
func TestUtilizationShape(t *testing.T) {
	prev := 0.0
	for _, m := range []int{16, 64, 256, 1024} {
		st, err := Run(Config{ArraySize: 32, M: m, K: 64, N: 64, DoubleBufferWeights: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.Utilization() <= prev {
			t.Errorf("utilization must grow with M: %.3f at M=%d (prev %.3f)", st.Utilization(), m, prev)
		}
		prev = st.Utilization()
	}
	small, _ := Run(Config{ArraySize: 8, M: 32, K: 64, N: 64, DoubleBufferWeights: true})
	big, _ := Run(Config{ArraySize: 64, M: 32, K: 64, N: 64, DoubleBufferWeights: true})
	if small.Utilization() <= big.Utilization() {
		t.Errorf("at tiny M the small array must utilize better: %.3f vs %.3f",
			small.Utilization(), big.Utilization())
	}
}

// TestPaddingWaste: a K that just exceeds a tile boundary burns almost a
// full extra round.
func TestPaddingWaste(t *testing.T) {
	exact, err := Run(Config{ArraySize: 32, M: 100, K: 64, N: 32, DoubleBufferWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	padded, err := Run(Config{ArraySize: 32, M: 100, K: 65, N: 32, DoubleBufferWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	if padded.Cycles <= exact.Cycles {
		t.Errorf("K=65 must cost an extra round over K=64: %d vs %d", padded.Cycles, exact.Cycles)
	}
	if padded.Utilization() >= exact.Utilization() {
		t.Errorf("padding must hurt utilization")
	}
}

func TestDiagCells(t *testing.T) {
	// 3x2 grid diagonals: d=0 ->1 cell, d=1 -> 2, d=2 -> 2, d=3 -> 1.
	want := []int{1, 2, 2, 1}
	for d, w := range want {
		if got := diagCells(d, 3, 2); got != w {
			t.Errorf("diag %d: got %d want %d", d, got, w)
		}
	}
	if diagCells(9, 3, 2) != 0 {
		t.Errorf("out-of-range diagonal must be empty")
	}
}
