package memarray

// The reference organization search: a frozen, test-only copy of the
// two-level Build/evaluate/evalOrg search (subarray shape and column-mux
// ratio searched inside each (banks, rp, wp), the latency target checked
// only on the winner of that inner search). Only the names changed and the
// counter increments were dropped. oracle_test.go requires Build to agree
// with it bit for bit, so the production search can be restructured
// without moving a single figure.
//
// It is a valid oracle only for TargetLatencyPS == 0: with a latency
// target the two-level search could discard a (banks, rp, wp) whose
// cheapest subarray was too slow although a costlier one met the target,
// which is the bug the flat search fixes.

import (
	"math"

	"neurometer/internal/circuit"
	"neurometer/internal/guard"
	"neurometer/internal/tech"
)

// referenceBuild is the two-level Build.
func referenceBuild(cfg Config) (*Array, error) {
	if cfg.CapacityBytes <= 0 {
		return nil, guard.Invalid("memarray: capacity must be positive, got %d", cfg.CapacityBytes)
	}
	if cfg.BlockBytes <= 0 {
		return nil, guard.Invalid("memarray: block size must be positive, got %d", cfg.BlockBytes)
	}
	if int64(cfg.BlockBytes) > cfg.CapacityBytes {
		return nil, guard.Invalid("memarray: block (%dB) exceeds capacity (%dB)", cfg.BlockBytes, cfg.CapacityBytes)
	}
	if cfg.CyclePS <= 0 {
		return nil, guard.Invalid("memarray: CyclePS must be positive")
	}
	if err := guard.CheckFinites(
		"CyclePS", cfg.CyclePS, "ReadBytesPerCycle", cfg.ReadBytesPerCycle,
		"WriteBytesPerCycle", cfg.WriteBytesPerCycle, "TargetLatencyPS", cfg.TargetLatencyPS,
	); err != nil {
		return nil, guard.Invalid("memarray: %v", err)
	}

	bankChoices := powersOfTwo(1, maxBanks)
	if cfg.Banks > 0 {
		bankChoices = []int{cfg.Banks}
	}
	readChoices := []int{1, 2, 3, 4}
	if cfg.ReadPorts > 0 {
		readChoices = []int{cfg.ReadPorts}
	}
	writeChoices := []int{1, 2, 3, 4}
	if cfg.WritePorts > 0 {
		writeChoices = []int{cfg.WritePorts}
	}

	var best *Array
	var bestCost float64
	for _, banks := range bankChoices {
		if int64(banks)*int64(cfg.BlockBytes)*8 > cfg.CapacityBytes*8 {
			// Banks smaller than one block make no sense.
			continue
		}
		for _, rp := range readChoices {
			for _, wp := range writeChoices {
				if !meetsThroughput(cfg, banks, rp, wp) {
					continue
				}
				a, err := referenceEvaluate(cfg, banks, rp, wp)
				if err != nil {
					continue
				}
				if cfg.TargetLatencyPS > 0 && a.accessPS > cfg.TargetLatencyPS {
					continue
				}
				// Cost: area-energy product (CACTI's classic objective),
				// energy averaged over a read+write pair.
				cost := a.areaUM2 * (a.readPJ + a.writePJ)
				if best == nil || cost < bestCost {
					best, bestCost = a, cost
				}
			}
		}
	}
	if best == nil {
		return nil, guard.Infeasible("memarray: no feasible organization for %dB (block %dB, need %.1fR+%.1fW B/cyc, latency<=%.0fps)",
			cfg.CapacityBytes, cfg.BlockBytes, cfg.ReadBytesPerCycle, cfg.WriteBytesPerCycle, cfg.TargetLatencyPS)
	}
	return best, nil
}

// referenceEvaluate is the inner subarray x column-mux search.
func referenceEvaluate(cfg Config, banks, rp, wp int) (*Array, error) {
	n := cfg.Node
	totalBits := float64(cfg.CapacityBytes) * 8
	bankBits := totalBits / float64(banks)
	blockBits := float64(cfg.BlockBytes) * 8
	ports := rp + wp

	cellArea := n.CellAreaUM2(cfg.Cell) * portAreaFactor(cfg.Cell, ports)
	cellW, cellH := n.CellDimsUM(cfg.Cell)
	pf := math.Sqrt(portAreaFactor(cfg.Cell, ports))
	cellW *= pf
	cellH *= pf

	// Subarray search: square-ish subarrays between 64x64 and 1024x1024.
	type subCand struct {
		rows, cols int
		res        *Array
		cost       float64
	}
	var best *subCand
	for _, rows := range []int{16, 32, 64, 128, 256, 512, 1024} {
		for _, cols := range []int{16, 32, 64, 128, 256, 512, 1024} {
			subBits := float64(rows * cols)
			if subBits > bankBits {
				continue
			}
			subsPerBank := math.Ceil(bankBits / subBits)
			// Active subarrays per access: enough columns to supply the
			// block, with the column-mux ratio searched alongside.
			for _, colMux := range []int{1, 2, 4, 8} {
				bitsPerSub := float64(cols / colMux)
				if bitsPerSub < 1 {
					continue
				}
				activeSubs := math.Ceil(blockBits / bitsPerSub)
				if activeSubs > subsPerBank {
					continue
				}

				a := referenceEvalOrg(cfg, banks, rp, wp, rows, cols, int(subsPerBank),
					int(activeSubs), cellArea, cellW, cellH)
				if a.cyclePS > cfg.CyclePS*2.05 {
					// Bank cycle can be up to 2 cycles with pipelining; slower
					// organizations can't sustain the per-bank throughput.
					continue
				}
				cost := a.areaUM2 * (a.readPJ + a.writePJ)
				if best == nil || cost < best.cost {
					best = &subCand{rows: rows, cols: cols, res: a, cost: cost}
				}
			}
		}
	}
	if best == nil {
		return nil, guard.Infeasible("memarray: no subarray organization fits")
	}
	return best.res, nil
}

// referenceEvalOrg is evalOrg with its original latch term.
func referenceEvalOrg(cfg Config, banks, rp, wp, rows, cols, subsPerBank, activeSubs int,
	cellArea, cellW, cellH float64) *Array {

	n := cfg.Node
	blockBits := float64(cfg.BlockBytes) * 8
	bankBits := float64(cfg.CapacityBytes) * 8 / float64(banks)

	// ---- Subarray level -------------------------------------------------
	subCellsArea := float64(rows*cols) * cellArea
	dec := circuit.Decoder{Node: n, Outputs: rows}.Eval()
	wlWire := circuit.Wire{
		Node: n, Layer: tech.WireLocal,
		LengthMM:  float64(cols) * cellW / 1000,
		DriverRes: n.InvRonOhm() / 16,
		LoadFF:    float64(cols) * 0.18, // gate cap of pass transistors
	}
	wlDelay := wlWire.ElmoreDelayPS()
	wlEnergy := wlWire.Eval().DynPJ

	// Bitline: discharge through the cell; the cell is a weak driver
	// (~25x unit inverter resistance); sensing uses a reduced swing.
	blLen := float64(rows) * cellH / 1000
	blCap := n.WireCapFFPerMM[tech.WireLocal]*blLen + float64(rows)*0.10
	cellRes := n.InvRonOhm() * 25
	blDelay := cellRes * blCap * 1e-15 * 1e12 * 0.35 // reduced swing sensing
	const senseSwing = 0.25
	blEnergyPerCol := blCap * n.Vdd * n.Vdd * senseSwing / 1000 // pJ

	// Peripheral gates per subarray: sense amps + precharge + write
	// drivers per column, wordline drivers per row.
	perColGates := 14.0 * float64(rp+wp)
	perRowGates := 4.0 * float64(rp+wp)
	periphGates := float64(cols)*perColGates + float64(rows)*perRowGates
	periphArea := periphGates * n.GateAreaUM2()
	subArea := (subCellsArea + periphArea + dec.AreaUM2) * 1.18 // routing channels

	senseDelay := 3 * n.FO4PS
	subAccessPS := dec.DelayPS + wlDelay + blDelay + senseDelay

	// ---- Bank level ------------------------------------------------------
	bankArea := subArea * float64(subsPerBank)
	bankSideMM := math.Sqrt(bankArea) / 1000
	// Intra-bank data distribution: blockBits routed from the active
	// subarrays to the bank port on intermediate metal with shielding.
	// Each read and write port owns its own data path.
	const shield = 1.4
	portPaths := float64(rp + wp)
	htree := circuit.Wire{
		Node: n, Layer: tech.WireIntermediate,
		LengthMM: bankSideMM * 0.5,
		Bits:     int(blockBits),
	}
	htreeRes, _ := htree.Repeated()
	htreeArea := htreeRes.AreaUM2 * shield * portPaths
	htreeEnergy := htreeRes.DynPJ // per access on one port
	htreeDelay := htreeRes.DelayPS
	htreeLeak := htreeRes.LeakUW * portPaths

	bankCtlGates := 800 + 60*math.Log2(bankBits)
	bankCtlArea, bankCtlDyn, bankCtlLeak := n.LogicBlock(bankCtlGates, 0.3)

	bankTotalArea := (bankArea+htreeArea+bankCtlArea)*1.08 + // bank assembly
		float64(activeSubs)*blockBits/float64(activeSubs)*
			circuit.DFF{Node: n}.Eval().AreaUM2 // output latch per block bit

	// ---- Array level -----------------------------------------------------
	cellsOnly := bankTotalArea * float64(banks)
	arraySideMM := math.Sqrt(cellsOnly) / 1000
	// Bank-to-port routing across the array: the block bus travels on
	// average a third of the array side, regardless of which bank serves
	// the access (banks tile in 2D around the port spine).
	edge := circuit.Wire{
		Node: n, Layer: tech.WireIntermediate,
		LengthMM: arraySideMM * 0.35,
		Bits:     int(blockBits),
	}
	edgeRes, _ := edge.Repeated()
	edgeArea := edgeRes.AreaUM2 * shield * portPaths
	totalArea := cellsOnly + edgeArea

	// ---- Per-access energy ----------------------------------------------
	active := float64(activeSubs)
	readPJ := dec.DynPJ*active + wlEnergy*active +
		blEnergyPerCol*float64(cols)*active +
		htreeEnergy + edgeRes.DynPJ + bankCtlDyn
	// Writes drive full-swing bitlines but skip the sense path.
	writePJ := dec.DynPJ*active + wlEnergy*active +
		blEnergyPerCol*float64(cols)*active*(1.0/senseSwing)*0.5 +
		htreeEnergy + edgeRes.DynPJ + bankCtlDyn

	// ---- Leakage ---------------------------------------------------------
	totalBits := float64(cfg.CapacityBytes) * 8
	leakUW := totalBits*n.CellLeakNW(cfg.Cell)/1000 +
		periphGates*float64(subsPerBank*banks)*n.GateLeakNW/1000 +
		bankCtlLeak*float64(banks) +
		(htreeLeak+edgeRes.LeakUW)*float64(banks)

	accessPS := subAccessPS + htreeDelay + edgeRes.DelayPS
	cyclePS := subAccessPS * 1.1 // bank busy time; H-trees are pipelined

	return &Array{
		Cfg: cfg,
		Org: Org{
			Banks: banks, ReadPorts: rp, WritePorts: wp,
			SubarrayRows: rows, SubarrayCols: cols, SubarraysPerBank: subsPerBank,
		},
		areaUM2:  totalArea,
		readPJ:   readPJ,
		writePJ:  writePJ,
		leakUW:   leakUW,
		accessPS: accessPS,
		cyclePS:  cyclePS,
	}
}
