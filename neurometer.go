// Package neurometer is a from-scratch Go implementation of NeuroMeter, the
// integrated power, area, and timing modeling framework for machine-learning
// accelerators (Tang et al., HPCA 2021).
//
// The package is the public face of the library: it re-exports the
// configuration surface, the chip builder, the runtime-power interface, the
// bundled workloads, and the performance simulator, so that a user can go
// from a high-level architecture description to power/area/timing reports
// and runtime efficiency analysis:
//
//	cfg := neurometer.Config{
//	    Name: "my-accelerator", TechNM: 28, ClockHz: 700e6,
//	    Tx: 2, Ty: 4,
//	    Core: neurometer.CoreConfig{
//	        NumTUs: 2, TURows: 64, TUCols: 64, TUDataType: neurometer.Int8,
//	        HasSU: true,
//	        Mem:   []neurometer.MemSegment{{Name: "spad", CapacityBytes: 4 << 20}},
//	    },
//	    NoCBisectionGBps: 256,
//	    OffChip:          []neurometer.OffChipPort{{Kind: neurometer.HBMPort, GBps: 700}},
//	}
//	chip, err := neurometer.Build(cfg)
//	fmt.Println(chip.Report())
//
// Architecture-level modeling follows the paper's top-down methodology
// (§II): components map to computing arrays, memory arrays, interconnect
// and regular logic; those map onto RC/Elmore circuit models against a
// technology backend. Runtime analysis pairs the chip model with the
// bundled tile-level performance simulator (the TF-Sim role) or with the
// sparse roofline model of §IV.
package neurometer

import (
	"context"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/maclib"
	"neurometer/internal/perfsim"
	"neurometer/internal/periph"
	"neurometer/internal/sparse"
	"neurometer/internal/workloads"
)

// Configuration surface (see chip.Config for field documentation).
type (
	// Config is the chip-level architecture configuration.
	Config = chip.Config
	// CoreConfig describes one core (TUs, RTs, VU, SU, memory slice).
	CoreConfig = chip.CoreConfig
	// MemSegment is one region of the distributed on-chip memory.
	MemSegment = chip.MemSegment
	// OffChipPort requests a peripheral interface (HBM, DDR, PCIe, ICI).
	OffChipPort = chip.OffChipPort
	// Chip is a fully evaluated accelerator.
	Chip = chip.Chip
	// Activity carries runtime statistics for runtime-power analysis.
	Activity = chip.Activity
	// EfficiencySummary bundles achieved TOPS, utilization, TOPS/W and
	// TOPS/TCO for a workload run.
	EfficiencySummary = chip.EfficiencySummary
	// TimingEntry is one row of the hardware critical-path report.
	TimingEntry = chip.TimingEntry
	// EnergyEntry is one row of the Accelergy-style energy reference
	// table exported by Chip.EnergyTable.
	EnergyEntry = chip.EnergyEntry
	// JSONReport is the machine-readable chip evaluation.
	JSONReport = chip.JSONReport
	// TraceSample is one interval of a runtime activity trace;
	// TraceResult the evaluated power profile.
	TraceSample = chip.TraceSample
	TraceResult = chip.TraceResult
	// DataType selects an operand format (Int8, BF16, FP32, ...).
	DataType = maclib.DataType
	// Graph is a workload computational graph; Layer one node of it.
	Graph = graph.Graph
	// Layer is one operator of a workload graph.
	Layer = graph.Layer
	// SimOptions toggles the software optimizations of the performance
	// simulator (Space-to-Batch, Space-to-Depth, double buffering).
	SimOptions = perfsim.Options
	// SimResult is a performance-simulation outcome.
	SimResult = perfsim.Result
)

// Operand formats.
const (
	Int8  = maclib.Int8
	Int16 = maclib.Int16
	Int32 = maclib.Int32
	BF16  = maclib.BF16
	FP16  = maclib.FP16
	FP32  = maclib.FP32
)

// Peripheral kinds.
const (
	DDRPort   = periph.DDRPort
	HBMPort   = periph.HBMPort
	PCIePort  = periph.PCIePort
	ICILink   = periph.ICILink
	DMAEngine = periph.DMAEngine
	LPDDRPort = periph.LPDDRPort
)

// NoC topology overrides (the zero value auto-selects ring for <=4 tiles
// and 2-D mesh otherwise, per the paper's Table I convention).
const (
	NoCAuto  = chip.NoCAuto
	NoCMesh  = chip.NoCMesh
	NoCRing  = chip.NoCRing
	NoCBus   = chip.NoCBus
	NoCHTree = chip.NoCHTree
)

// Build constructs and evaluates a chip from the high-level configuration:
// it auto-scales dependent hardware (VU lanes, VReg ports, memory banking),
// solves the clock for a TOPS target when no clock is given, verifies
// timing, and enforces the optional area/power budgets.
func Build(cfg Config) (*Chip, error) { return chip.Build(cfg) }

// Workload returns a bundled case-study model by name: "resnet",
// "inception", "nasnet" (Table II) or "alexnet" (Eyeriss validation).
func Workload(name string) (*Graph, error) { return workloads.ByName(name) }

// Workloads returns the three datacenter case-study models of Table II.
func Workloads() []*Graph { return workloads.All() }

// DefaultSimOptions enables all software optimizations (the paper's
// "after optimization" configuration of Fig. 7).
func DefaultSimOptions() SimOptions { return perfsim.DefaultOptions() }

// SimulateCtx runs one batch of the workload through the chip with the
// bundled tile-level performance simulator and returns throughput, latency,
// utilization, per-layer stats and the activity factors for runtime-power
// analysis. Spans started inside the simulator (per graph, per layer) nest
// under any internal/obs span carried by ctx, and a canceled or expired
// ctx stops the simulation between layers.
func SimulateCtx(ctx context.Context, c *Chip, g *Graph, batch int, opt SimOptions) (*SimResult, error) {
	return perfsim.SimulateCtx(ctx, c, g, batch, opt)
}

// LatencyLimitedBatchCtx finds the largest power-of-two batch size whose
// batch latency meets the bound (the paper's 10 ms datacenter SLO
// analysis), or batch 1 when even that misses it, and returns it with its
// simulation result.
func LatencyLimitedBatchCtx(ctx context.Context, c *Chip, g *Graph, latencyBound float64, opt SimOptions) (int, *SimResult, error) {
	return perfsim.LatencyLimitedBatchCtx(ctx, c, g, latencyBound, opt)
}

// Sparse-study surface (§IV / Fig. 11).
type (
	// SparseArch selects one of the four §IV architectures (TU32, TU8,
	// RT1024, RT64).
	SparseArch = sparse.Arch
	// SparseWorkload is the synthetic SpMV microbenchmark shape.
	SparseWorkload = sparse.Workload
	// SparseResult is one point of the Fig. 11 energy-efficiency curves.
	SparseResult = sparse.Result
)

// The four §IV architectures.
const (
	TU32   = sparse.TU32
	TU8    = sparse.TU8
	RT1024 = sparse.RT1024
	RT64   = sparse.RT64
)

// SparsityStudy evaluates one architecture on the synthetic SpMV
// microbenchmark at one sparsity level: it generates the CSR-encoded
// matrix, measures the block/vector zero-skip fractions, applies the
// modified roofline, and pairs it with the runtime power model.
func SparsityStudy(a SparseArch, w SparseWorkload, sparsity float64, seed uint64) (SparseResult, error) {
	return sparse.Study(a, w, sparsity, seed)
}

// SparsitySweep produces the full Fig. 11 dataset across the four
// architectures.
func SparsitySweep(w SparseWorkload, sparsities []float64, seed uint64) (map[SparseArch][]SparseResult, error) {
	return sparse.Sweep(w, sparsities, seed)
}

// DefaultSparseWorkload and DefaultSparsities mirror the paper's setup.
func DefaultSparseWorkload() SparseWorkload { return sparse.DefaultWorkload() }
func DefaultSparsities() []float64          { return sparse.DefaultSparsities() }
