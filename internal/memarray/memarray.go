// Package memarray is NeuroMeter's analytical memory-array model, in the
// CACTI tradition: SRAM/DFF/eDRAM arrays organized as banks of subarrays,
// with decoder/wordline/bitline Elmore timing, per-access energy, leakage,
// and layout area including sense amplifiers, drivers, routing channels and
// the H-tree that distributes the wide data bus across banks.
//
// The package also contains the internal organization optimizer the paper
// describes (§II "the tool will automatically set the low-level parameters
// (such as the number of banks, the number of the read/write ports) via its
// internal optimizer"): given capacity, block size, a target latency and a
// target throughput, Build searches banks x read ports x write ports x
// subarray rows x subarray columns in one loop and returns the minimum-cost
// organization that passes every filter.
package memarray

import (
	"fmt"
	"math"

	"neurometer/internal/circuit"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/pat"
	"neurometer/internal/tech"
)

// Observability: memarray.builds counts Build calls; memarray.evals counts
// the (banks, read ports, write ports) combinations that pass the
// throughput filter, each of which the optimizer then scores over every
// subarray shape that fits. That search is the dominant cost of chip
// construction.
var (
	mBuilds = obs.NewCounter("memarray.builds")
	mEvals  = obs.NewCounter("memarray.evals")
)

// Config specifies a memory array the way a NeuroMeter user does: high
// level parameters only. Zero values for Banks/ReadPorts/WritePorts ask the
// optimizer to choose them.
type Config struct {
	Node tech.Node
	Cell tech.MemCell

	// CapacityBytes is the total storage; BlockBytes the width of one
	// access (one port, one cycle).
	CapacityBytes int64
	BlockBytes    int

	// ReadPorts/WritePorts: dedicated port counts per bank. 0 = search.
	ReadPorts  int
	WritePorts int

	// Banks: 0 = search over powers of two.
	Banks int

	// CyclePS is the clock the array must keep up with (used for both
	// pipelining decisions and throughput accounting). Required.
	CyclePS float64

	// TargetLatencyPS: optional upper bound on random-access latency.
	TargetLatencyPS float64

	// ReadBytesPerCycle / WriteBytesPerCycle: sustained throughput the
	// array must deliver. The optimizer provisions banks*ports to cover
	// them with a bank-conflict margin.
	ReadBytesPerCycle  float64
	WriteBytesPerCycle float64
}

// Org describes the organization the optimizer settled on.
type Org struct {
	Banks            int
	ReadPorts        int
	WritePorts       int
	SubarrayRows     int
	SubarrayCols     int
	SubarraysPerBank int
}

// Array is a fully evaluated memory array.
type Array struct {
	Cfg Config
	Org Org

	areaUM2  float64
	readPJ   float64 // per BlockBytes read
	writePJ  float64
	leakUW   float64
	accessPS float64 // random access latency
	cyclePS  float64 // minimum bank cycle time
}

// conflictMargin over-provisions bank*port bandwidth to absorb bank
// conflicts in the banked scratchpads (software-managed layouts keep
// conflicts low, so the margin is modest).
const conflictMargin = 1.0

// maxBanks bounds the optimizer search.
const maxBanks = 4096

// subarraySides are the subarray row and column counts the optimizer
// tries, at any aspect ratio.
var subarraySides = []int{16, 32, 64, 128, 256, 512, 1024}

// Build evaluates (and where requested, optimizes) the array organization.
// Every organization must fit at least one block per bank, cover the
// throughput, have enough subarrays per bank for one block, keep its bank
// cycle within 2.05 clock cycles and meet TargetLatencyPS when one is set.
// Among those, the first with the lowest cost wins.
func Build(cfg Config) (*Array, error) {
	mBuilds.Inc()
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

	totalBits := float64(cfg.CapacityBytes) * 8
	blockBits := float64(cfg.BlockBytes) * 8
	var best *Array
	var bestCost float64
	for _, banks := range bankChoices {
		if int64(banks)*int64(cfg.BlockBytes)*8 > cfg.CapacityBytes*8 {
			// Banks smaller than one block make no sense.
			continue
		}
		bankBits := totalBits / float64(banks)
		for _, rp := range readChoices {
			for _, wp := range writeChoices {
				if !meetsThroughput(cfg, banks, rp, wp) {
					continue
				}
				mEvals.Inc()
				cellArea, cellW, cellH := cellGeometry(cfg.Node, cfg.Cell, rp+wp)
				for _, rows := range subarraySides {
					for _, cols := range subarraySides {
						subBits := float64(rows * cols)
						if subBits > bankBits {
							continue
						}
						// Each active subarray supplies cols bits of the block.
						subsPerBank := math.Ceil(bankBits / subBits)
						activeSubs := math.Ceil(blockBits / float64(cols))
						if activeSubs > subsPerBank {
							continue
						}
						a := evalOrg(cfg, banks, rp, wp, rows, cols, int(subsPerBank),
							int(activeSubs), cellArea, cellW, cellH)
						if a.cyclePS > cfg.CyclePS*2.05 {
							// Bank cycle can be up to 2 cycles with pipelining; slower
							// organizations can't sustain the per-bank throughput.
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
		}
	}
	if best == nil {
		return nil, guard.Infeasible("memarray: no feasible organization for %dB (block %dB, need %.1fR+%.1fW B/cyc, latency<=%.0fps)",
			cfg.CapacityBytes, cfg.BlockBytes, cfg.ReadBytesPerCycle, cfg.WriteBytesPerCycle, cfg.TargetLatencyPS)
	}
	return best, nil
}

func meetsThroughput(cfg Config, banks, rp, wp int) bool {
	cap := float64(banks * cfg.BlockBytes)
	need := (cfg.ReadBytesPerCycle) * conflictMargin
	if float64(rp)*cap < need {
		return false
	}
	needW := (cfg.WriteBytesPerCycle) * conflictMargin
	return float64(wp)*cap >= needW
}

func powersOfTwo(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v *= 2 {
		out = append(out, v)
	}
	return out
}

// portAreaFactor returns the cell-area multiplier for a cell with the given
// total port count: each additional port adds a wordline (height) and a
// bitline pair (width). DFF-based register files grow far more slowly: the
// flop is shared and extra ports only add read-mux fanout.
func portAreaFactor(cell tech.MemCell, totalPorts int) float64 {
	if totalPorts <= 1 {
		return 1
	}
	extra := float64(totalPorts - 1)
	if cell == tech.CellDFF {
		return 1 + 0.15*extra
	}
	return (1 + 0.45*extra) * (1 + 0.25*extra)
}

// cellGeometry returns the area and width/height of one bit cell with the
// given total port count.
func cellGeometry(n tech.Node, cell tech.MemCell, ports int) (area, w, h float64) {
	area = n.CellAreaUM2(cell) * portAreaFactor(cell, ports)
	w, h = n.CellDimsUM(cell)
	pf := math.Sqrt(portAreaFactor(cell, ports))
	return area, w * pf, h * pf
}

// evalOrg computes the PAT of one organization.
func evalOrg(cfg Config, banks, rp, wp, rows, cols, subsPerBank, activeSubs int,
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
		blockBits*circuit.DFF{Node: n}.Eval().AreaUM2 // output latch per block bit

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

// AreaUM2 returns total layout area in um^2.
func (a *Array) AreaUM2() float64 { return a.areaUM2 }

// ReadEnergyPJ returns the energy of one block read.
func (a *Array) ReadEnergyPJ() float64 { return a.readPJ }

// WriteEnergyPJ returns the energy of one block write.
func (a *Array) WriteEnergyPJ() float64 { return a.writePJ }

// LeakUW returns total static leakage in uW.
func (a *Array) LeakUW() float64 { return a.leakUW }

// AccessDelayPS returns the random-access latency in ps.
func (a *Array) AccessDelayPS() float64 { return a.accessPS }

// CycleDelayPS returns the minimum per-bank cycle time in ps.
func (a *Array) CycleDelayPS() float64 { return a.cyclePS }

// Result summarizes the array as a pat.Result whose DynPJ is the average of
// one read and one write.
func (a *Array) Result() pat.Result {
	return pat.Result{
		AreaUM2: a.areaUM2,
		DynPJ:   (a.readPJ + a.writePJ) / 2,
		LeakUW:  a.leakUW,
		DelayPS: a.accessPS,
	}
}

func (a *Array) String() string {
	return fmt.Sprintf("mem[%s %dB block=%dB banks=%d %dR%dW sub=%dx%d area=%.2fmm2 rd=%.1fpJ wr=%.1fpJ lat=%.0fps]",
		a.Cfg.Cell, a.Cfg.CapacityBytes, a.Cfg.BlockBytes, a.Org.Banks,
		a.Org.ReadPorts, a.Org.WritePorts, a.Org.SubarrayRows, a.Org.SubarrayCols,
		a.areaUM2/1e6, a.readPJ, a.writePJ, a.accessPS)
}
