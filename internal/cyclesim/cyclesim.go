// Package cyclesim is a cycle-accurate simulator for a single
// weight-stationary systolic tensor unit — the Scale-Sim-class companion to
// the analytical models. It exists to cross-validate NeuroMeter's closed
// forms: the per-tile cycle counts (fill/stream/drain), the weight-load
// overlap of double buffering, and the active-cell-cycle totals that drive
// the runtime energy accounting of the performance simulator.
//
// The simulated machine is the classic weight-stationary array: weights are
// preloaded column-tiles; activations enter from the left edge with the
// usual diagonal skew (row r is delayed by r cycles); partial sums flow
// down and exit at the bottom after traversing all rows. One GEMM of
// (M x K) x (K x N) is tiled into ceil(K/X) x ceil(N/X) weight tiles, each
// streaming all M rows.
package cyclesim

import "fmt"

// Config describes one GEMM executed on one X x X weight-stationary array.
type Config struct {
	// ArraySize is X (rows == cols).
	ArraySize int
	// M, K, N are the GEMM dimensions.
	M, K, N int
	// DoubleBufferWeights overlaps the next tile's weight load with the
	// current tile's streaming (TPU-style double-buffered weight regs).
	DoubleBufferWeights bool
}

// Stats is the simulation outcome.
type Stats struct {
	// Cycles is the total execution time in cycles.
	Cycles int
	// Tiles is the number of weight tiles processed.
	Tiles int
	// WeightLoadCycles counts cycles where a weight column-load was the
	// only activity (exposed loads).
	WeightLoadCycles int
	// ActiveCellCycles sums, over all cycles, the number of cells holding
	// live data (the energy-relevant quantity).
	ActiveCellCycles int64
	// ClockedCellCycles counts cells x cycles for the whole run (what an
	// ungated array would burn).
	ClockedCellCycles int64
	// MACs is the number of useful multiply-accumulates performed; it must
	// equal M*K*N exactly (checked by the tests).
	MACs int64
}

// Utilization returns useful MACs over clocked cell-cycles.
func (s Stats) Utilization() float64 {
	if s.ClockedCellCycles == 0 {
		return 0
	}
	return float64(s.MACs) / float64(s.ClockedCellCycles)
}

// Run simulates the GEMM cycle by cycle.
func Run(cfg Config) (Stats, error) {
	x := cfg.ArraySize
	if x <= 0 {
		return Stats{}, fmt.Errorf("cyclesim: array size must be positive, got %d", x)
	}
	if cfg.M <= 0 || cfg.K <= 0 || cfg.N <= 0 {
		return Stats{}, fmt.Errorf("cyclesim: GEMM dims must be positive, got %dx%dx%d", cfg.M, cfg.K, cfg.N)
	}

	kt := (cfg.K + x - 1) / x
	nt := (cfg.N + x - 1) / x

	var st Stats
	st.Tiles = kt * nt
	cycle := 0

	for tn := 0; tn < nt; tn++ {
		cols := min(x, cfg.N-tn*x) // active columns of this tile
		for tk := 0; tk < kt; tk++ {
			rows := min(x, cfg.K-tk*x) // active rows of this tile

			// ---- Weight load -------------------------------------------
			// Loading shifts one row of weights per cycle into the array.
			// With double buffering the load of tile i+1 overlapped tile
			// i's streaming, so only the very first tile pays it exposed.
			if !cfg.DoubleBufferWeights || (tn == 0 && tk == 0) {
				st.WeightLoadCycles += rows
				cycle += rows
				st.ClockedCellCycles += int64(rows) * int64(x) * int64(x)
			}

			// ---- Stream M activations through the wavefront -------------
			// Activation row m enters column 0 of array-row r at cycle
			// (m + r) relative to the tile start; the psum of output (m, c)
			// exits after traversing all rows and c column hops. The whole
			// tile therefore occupies M + rows + cols - 2 wavefront cycles,
			// simulated cell by cell to count live occupancy exactly.
			span := cfg.M + rows + cols - 2
			for t := 0; t < span; t++ {
				live := 0
				// Cell (r, c) is live at local time t when it processes
				// some activation row m = t - r - c with 0 <= m < M.
				// Count by diagonals: cells with r+c == d are live iff
				// 0 <= t-d < M.
				for d := 0; d <= rows+cols-2; d++ {
					m := t - d
					if m < 0 || m >= cfg.M {
						continue
					}
					live += diagCells(d, rows, cols)
				}
				st.ActiveCellCycles += int64(live)
				st.MACs += int64(live)
				st.ClockedCellCycles += int64(x) * int64(x)
			}
			cycle += span
		}
	}
	st.Cycles = cycle
	return st, nil
}

// diagCells counts cells on the anti-diagonal r+c == d of a rows x cols
// grid.
func diagCells(d, rows, cols int) int {
	lo := max(0, d-cols+1)
	hi := min(rows-1, d)
	if hi < lo {
		return 0
	}
	return hi - lo + 1
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// AnalyticalCycles is the closed form the performance simulator uses for
// one tensor unit processing the same GEMM: rounds x (M + bubble) plus the
// one-time fill, where the bubble is the per-round wavefront exposure.
// Cross-validating it against Run is the point of this package.
func AnalyticalCycles(cfg Config) float64 {
	x := float64(cfg.ArraySize)
	kt := float64((cfg.K + cfg.ArraySize - 1) / cfg.ArraySize)
	nt := float64((cfg.N + cfg.ArraySize - 1) / cfg.ArraySize)
	rounds := kt * nt
	if cfg.DoubleBufferWeights {
		// Fill/drain wavefront per round (~2X-2), loads overlapped except
		// the first.
		return rounds*(float64(cfg.M)+2*x-2) + x
	}
	return rounds * (float64(cfg.M) + 3*x - 2)
}
