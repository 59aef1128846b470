package perfsim

import (
	"context"
	"fmt"
	"math"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// Observability: simulation and per-layer counters feed the obs default
// registry; spans record per-graph and per-layer wall time when tracing is
// enabled (no-ops otherwise).
var (
	mSimulations = obs.NewCounter("perfsim.simulations")
	mLayers      = obs.NewCounter("perfsim.layers_simulated")
)

// Options toggles the software optimizations (Fig. 7's "before/after").
type Options struct {
	// SpaceToDepth folds spatial positions into the reduction dimension for
	// early layers whose channel depth underfills the array rows.
	SpaceToDepth bool
	// SpaceToBatch splits large spatial extents across cores like extra
	// batch, avoiding whole-activation broadcasts.
	SpaceToBatch bool
	// DoubleBuffer overlaps weight loading and off-chip/NoC transfers with
	// compute.
	DoubleBuffer bool
}

// DefaultOptions enables everything (the paper's "after optimization").
func DefaultOptions() Options {
	return Options{SpaceToDepth: true, SpaceToBatch: true, DoubleBuffer: true}
}

// NoOptimizations is the "before" configuration of Fig. 7.
func NoOptimizations() Options { return Options{} }

// LayerStat records the simulated execution of one layer (for one batch).
type LayerStat struct {
	Name          string
	Kind          graph.OpKind
	Cycles        float64
	ComputeCycles float64
	NoCCycles     float64
	HBMCycles     float64
	VUCycles      float64
	Overhead      float64
	MACs          float64
	Mapping       string // "n-split" | "m-split" | "vector"
	// Per-layer traffic, for activity-trace generation.
	MemReadBytes  float64
	MemWriteBytes float64
	NoCBytes      float64
	HBMBytes      float64
	StreamMACs    float64
}

// Result is the outcome of simulating one batch through the graph.
type Result struct {
	Batch        int
	Cycles       float64
	TimeSec      float64
	LatencySec   float64 // == TimeSec (one batch in flight)
	FPS          float64
	AchievedTOPS float64
	Utilization  float64
	Activity     chip.Activity
	Layers       []LayerStat
}

// fixed per-layer costs: kernel launch/sequencing plus a per-core
// synchronization term — the scheduling overheads that penalize many-core
// chips at small batch.
const (
	launchCycles   = 1800.0
	syncPerCore    = 40.0
	multicastShare = 0.8 // mesh multicast saves a fifth of unicast traffic
	// dispatchPerTile is the scalar-unit sequencing cost (tile descriptor,
	// address calculation) per weight tile, serialized per core.
	dispatchPerTile = 8.0
	// nocExposed is the fraction of inter-core transfer time that cannot
	// hide behind compute even with double buffering (the first tile of
	// every dependency chain).
	nocExposed = 0.5
	// haloPerCore is the fractional recompute/transfer overhead each
	// additional core adds when the spatial dimension is split (halo rows
	// of the convolution window).
	haloPerCore = 0.08
)

// SimulateCtx runs one batch of g through c and returns the detailed
// result, per-layer stats included. It opens a span per graph (child of any
// span in ctx) and a child span per layer carrying the mapping decision and
// cycle breakdown. The ctx deadline is honored between layers (a canceled
// or expired ctx aborts the simulation with guard.ErrCanceled/ErrTimeout),
// panics are recovered as guard.ErrCandidatePanic, and the headline result
// metrics are finite-checked before returning so NaN/Inf never escapes into
// sweeps.
//
// SimulateCtx re-validates and re-prepares the graph on every call. When
// evaluating many chips against one workload, Prepare the graph once and
// loop (*Prepared).SimulateInto over one scratch Result: it skips that cost,
// allocates nothing, and produces bit-identical headline metrics.
func SimulateCtx(ctx context.Context, c *chip.Chip, g *graph.Graph, batch int, opt Options) (res *Result, err error) {
	defer guard.RecoverTo(&err)
	if c == nil {
		return nil, guard.Invalid("perfsim: nil chip")
	}
	if g == nil {
		return nil, guard.Invalid("perfsim: nil graph")
	}
	if batch <= 0 {
		return nil, guard.Invalid("perfsim: batch must be positive, got %d", batch)
	}
	p, err := Prepare(g)
	if err != nil {
		return nil, err
	}
	return p.simulateDetailed(ctx, c, batch, opt)
}

// simulateDetailed is SimulateCtx on a prepared graph with validated
// arguments: the perfsim.simulate fault site and span, then one detailed
// simulation into a fresh Result.
func (p *Prepared) simulateDetailed(ctx context.Context, c *chip.Chip, batch int, opt Options) (*Result, error) {
	if err := guard.Inject(ctx, "perfsim.simulate"); err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "perfsim.simulate")
	defer span.End()
	span.SetStr("graph", p.g.Name)
	span.SetInt("batch", int64(batch))
	res := &Result{Layers: make([]LayerStat, 0, len(p.layers))}
	if err := simulateInto(ctx, c, p, batch, opt, res, true); err != nil {
		return nil, err
	}
	return res, nil
}

func nonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// fmax/fmin are branch-only max/min for the simulator's closed-form value
// domain: non-negative finite quantities or +Inf, never NaN and never -0
// (every operand is a count, a byte total, or a cycle count). On that
// domain they are bit-identical to math.Max/math.Min, without the
// function-call and NaN/±0 handling cost (math.Max is not an intrinsic on
// amd64 and showed up at ~25% of the batch inner loop).
func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func fmin(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// simulateInto is the shared simulation core. It fully overwrites *res
// (reusing the Layers backing array) and allocates nothing on the steady
// state when detail is false: per-layer spans and LayerStat records are
// produced only for the detailed single-candidate path (SimulateCtx), while
// the batch/sweep path accumulates through locals. Both modes execute the
// same closed forms in the same order, so headline metrics are
// bit-identical between them.
func simulateInto(ctx context.Context, c *chip.Chip, p *Prepared, batch int, opt Options, res *Result, detail bool) (err error) {
	defer guard.RecoverTo(&err)
	core := c.Core
	if core.TU == nil {
		return guard.Invalid("perfsim: chip %q has no tensor units (RT chips use the sparse roofline model)", c.Cfg.Name)
	}

	x := float64(core.Cfg.TUCols)
	tuPerCore := float64(core.Cfg.NumTUs)
	cores := float64(c.Tiles())
	totalTUs := tuPerCore * cores
	lanes := float64(core.Cfg.VULanes) * cores
	mulBytes := float64(core.Cfg.TUDataType.Bits()) / 8
	accBytes := 4.0

	// Bandwidths in bytes per cycle.
	nocBPC := c.Cfg.NoCBisectionGBps * 1e9 / c.ClockHz()
	if nocBPC <= 0 || cores == 1 {
		nocBPC = math.Inf(1) // single core: no NoC crossing
	}
	hbmBPC := offChipGBps(c) * 1e9 / c.ClockHz()
	if hbmBPC <= 0 {
		hbmBPC = math.Inf(1)
	}
	memBytes := float64(0)
	if core.Mem != nil {
		memBytes = float64(core.Mem.CapacityBytes()) * cores
	}
	weightsResident := p.params <= memBytes*0.85

	layers := res.Layers[:0]
	*res = Result{Batch: batch, Layers: layers}
	batchF := float64(batch)
	act := chip.Activity{ClockGateIdleFrac: 0.5}
	var totalMACs, totalVecOps float64
	// streamMACs counts cell-cycles actually clocked through the arrays,
	// including padded tiles and fill/drain bubbles: the energy-relevant
	// quantity (a 64x64 array computing a 10-row stripe still clocks all
	// 4096 cells). This is the mechanism behind the paper's observation
	// that runtime energy efficiency favors smaller arrays (§III-B.2).
	var streamMACs float64
	var memRead, memWrite, nocBytes, hbmBytes float64

	// Chip-level constants hoisted out of the layer loop; each is exactly
	// the subexpression the per-layer forms used, so hoisting cannot change
	// a single bit of the result.
	hopCycles := c.NoC.AvgHops() * c.NoC.HopLatencyCycles()
	// Weight double buffering overlaps most of the tile switch, but
	// skewed refill still exposes ~half an array depth per round;
	// without it every round pays the full load + fill bubble.
	bubble := 3 * x // fill + drain + weight load, per round
	oneTime := 0.0
	if opt.DoubleBuffer {
		bubble = 2 * x // fill + drain; only the weight load overlaps
		oneTime = 0
	}

	// Deadline checks gate on the Done channel: nil for non-cancelable
	// contexts (skip entirely), and a lock-free poll otherwise —
	// guard.CtxErr (which classifies via context.Cause, taking a mutex)
	// runs only once the context is actually dead, returning the identical
	// error it always did.
	done := ctx.Done()
	for li := range p.layers {
		lv := &p.layers[li]
		// Deadline check per layer: analytical layers are cheap, so this is
		// the granularity at which a per-candidate timeout can actually
		// interrupt a simulation.
		if done != nil {
			select {
			case <-done:
				return guard.CtxErr(ctx)
			default:
			}
		}
		if err := guard.Inject(ctx, "perfsim.layer"); err != nil {
			return err
		}
		macs := lv.macs * batchF
		vops := lv.vops * batchF
		totalMACs += macs

		var cyc float64
		if lv.isMatrix {
			mF, kF := lv.m0*batchF, lv.k0
			nF := lv.n0

			// Space-to-Depth: fold spatial into depth when K underfills
			// the array (early convs: K = 27..147 vs X up to 256).
			if opt.SpaceToDepth && lv.kind == graph.Conv2D && kF < x/2 && mF >= 4 {
				fold := fmin(4, math.Floor(x/kF))
				if fold >= 2 {
					kF *= fold
					mF = math.Ceil(mF / fold)
				}
			}

			kt := math.Ceil(kF / x)
			nt := math.Ceil(nF / x)
			tiles := kt * nt

			// The scheduler evaluates three mappings and picks the fastest,
			// mirroring TF-Sim's "advanced runtime graph scheduling". Fill
			// and drain cost one array-depth bubble per tile round (draining
			// tile i overlaps filling tile i+1). Each mapping is evaluated
			// into scalar locals — no per-layer candidate slice.

			// ---- A: N-split across cores (no inter-core psum merging) ----
			// Each core owns a slice of the output channels; partial sums
			// accumulate locally (intra-core K-splits share the core's
			// accumulators through the VReg). Inter-core parallelism is
			// therefore capped by the N-tile count: with few output-channel
			// tiles, part of the chip idles — the reason small batches
			// cannot feed many brawny cores.
			coresA := fmin(cores, nt)
			ntc := math.Ceil(nt / coresA)
			roundsA := math.Ceil(ntc * kt / tuPerCore)
			compA := roundsA*(mF+bubble) + oneTime
			// Intra-core K-splits accumulate in the core's accumulator
			// buffer (the TPU pattern): no VU cost.
			vuA := 0.0
			bcastA := 0.0
			if coresA > 1 {
				bcastA = mF * kF * mulBytes // activations, one crossing
			}
			nocA := bcastA / nocBPC
			energyA := mF * kF * mulBytes * (coresA - 1) * multicastShare
			tusA := fmin(coresA*tuPerCore, tiles)

			// ---- B: K+N split across cores (inter-core psum merging) ------
			var compB float64
			if tiles >= totalTUs {
				compB = math.Ceil(tiles/totalTUs)*(mF+bubble) + oneTime
			} else {
				share := math.Floor(totalTUs / tiles)
				compB = math.Ceil(mF/share) + bubble + oneTime
			}
			kSplit := fmin(kt, fmax(1, math.Floor(totalTUs/nt)))
			coresK := math.Ceil(kSplit / tuPerCore)
			// Every K-split pair produces a full M x N partial-sum tensor
			// that must be summed; the cross-core fraction rides the NoC.
			mergeB := fmax(0, kSplit-1) * mF * nF * accBytes *
				(coresK - 1) / fmax(coresK, 1)
			bcastB := 0.0
			if fmin(cores, tiles) > 1 {
				bcastB = mF * kF * mulBytes
			}
			vuB := fmax(0, kSplit-1) * mF * nF / lanes
			nocB := (mergeB + bcastB) / nocBPC
			energyB := mergeB + mF*kF*mulBytes*(fmin(cores, tiles)-1)*multicastShare
			coresB := fmin(cores, tiles)
			tusB := fmin(totalTUs, tiles*fmax(1, math.Floor(totalTUs/tiles)))

			// ---- C: M-split across cores (data/spatial parallel) -----------
			// Splitting the spatial/batch dimension across cores needs halo
			// rows around every slice (Space-to-Batch keeps the halos small
			// but not free); the scheduler searches the core count that
			// balances parallelism against halo recompute.
			// Without Space-to-Batch only whole frames distribute;
			// with it, spatial slices parallelize too (at halo cost).
			coresMax := fmin(cores, batchF)
			if opt.SpaceToBatch {
				coresMax = fmin(cores, fmax(coresMax, math.Floor(mF/32)))
			}
			// Distinct frames split for free; only splits beyond the
			// batch dimension cut spatially and pay halos.
			coresM := 1.0
			bestT := math.Inf(1)
			for n := 1.0; n <= coresMax; n *= 2 {
				spatial := fmax(1, n/batchF)
				if t := math.Ceil(mF/n) * (1 + haloPerCore*(spatial-1)); t < bestT {
					bestT, coresM = t, n
				}
			}
			spatialM := fmax(1, coresM/batchF)
			mc := math.Ceil(mF/coresM) * (1 + haloPerCore*(spatialM-1))
			roundsC := math.Ceil(tiles / tuPerCore)
			compC := roundsC*(mc+bubble) + oneTime
			wb := 0.0
			if coresM > 1 {
				wb = kF * nF * mulBytes // weights replicate, one crossing
			}
			vuC := 0.0 // intra-core accumulation in the accumulator buffer
			nocC := wb / nocBPC
			energyC := kF * nF * mulBytes * (coresM - 1) * multicastShare
			tusC := fmin(tuPerCore, tiles) * coresM

			// Pick cheapest: cost = max(compute, noc) + noc*exposed + vu/4,
			// ties broken in A, B, C order exactly as the historical
			// candidate-slice scan did.
			mapName, compute, noc, vu := "n-split", compA, nocA, vuA
			nocEnergy, coresUsed, tus := energyA, coresA, tusA
			bestCost := fmax(compA, nocA) + nocA*nocExposed + vuA*0.25
			if cB := fmax(compB, nocB) + nocB*nocExposed + vuB*0.25; cB < bestCost {
				mapName, compute, noc, vu = "kn-split", compB, nocB, vuB
				nocEnergy, coresUsed, tus = energyB, coresB, tusB
				bestCost = cB
			}
			if cC := fmax(compC, nocC) + nocC*nocExposed + vuC*0.25; cC < bestCost {
				mapName, compute, noc, vu = "m-split", compC, nocC, vuC
				nocEnergy, coresUsed, tus = energyC, coresM, tusC
			}
			merge, bcast := 0.0, nocEnergy
			sm := compute * tus * x * x
			streamMACs += sm

			// Off-chip: stream weights when not resident; spill activations
			// exceeding the on-chip memory.
			var hbm float64
			layerHBM := 0.0
			if !weightsResident {
				layerHBM += kF * nF * mulBytes
			}
			actBytes := (mF*kF + mF*nF) * mulBytes
			if actBytes > memBytes*0.5 {
				layerHBM += actBytes - memBytes*0.5
			}
			hbm = layerHBM / hbmBPC

			// Bias + activation epilogues ride the per-TU output pipeline
			// (the TPU-style activation path is sized to the array drain
			// rate); only a sliver of cleanup work reaches the shared VU.
			vu += vops / lanes * 0.05

			overhead := launchCycles + syncPerCore*coresUsed +
				dispatchPerTile*tiles/fmax(coresUsed, 1) +
				hopCycles
			if opt.DoubleBuffer {
				cyc = fmax(compute, fmax(noc, hbm)) + noc*nocExposed + vu*0.25 + overhead
			} else {
				cyc = compute + noc + hbm + vu + overhead
			}

			// Traffic accounting for the runtime power model.
			mrd := mF*kF*mulBytes*fmin(nt, 4) + kF*nF*mulBytes
			mwr := mF * nF * mulBytes
			memRead += mrd
			memWrite += mwr
			nocBytes += merge + bcast
			hbmBytes += layerHBM
			if detail {
				res.Layers = append(res.Layers, LayerStat{
					Name: lv.name, Kind: lv.kind, Mapping: mapName,
					Cycles: cyc, ComputeCycles: compute, NoCCycles: noc,
					HBMCycles: hbm, VUCycles: vu, Overhead: overhead, MACs: macs,
					MemReadBytes: mrd, MemWriteBytes: mwr,
					NoCBytes: merge + bcast, HBMBytes: layerHBM, StreamMACs: sm,
				})
			}
		} else if lv.kind == graph.DepthwiseConv2D || lv.kind == graph.Pool || lv.kind == graph.GlobalPool {
			// Depthwise convolutions pack block-diagonally onto the tensor
			// units: each channel is an independent (M x k^2) x (k^2 x 1)
			// GEMM, so only floor(X/k^2) diagonal blocks of k^2 cells are
			// active per pass — array efficiency ~ 1/X. Smaller arrays
			// digest depthwise layers far better (part of why wimpy designs
			// score higher utilization on NasNet); it still beats the
			// vector unit by an order of magnitude.
			// Pooling layers ride the same path: an average pool is a
			// depthwise convolution with constant weights.
			kk := lv.kk
			work := macs
			if work == 0 {
				work = vops
			}
			compute := work / (totalTUs * x * x / kk)
			overhead := launchCycles + syncPerCore*cores*0.5
			cyc = compute + overhead
			// Imperfect row gating clocks ~2x the active cells.
			sm := compute * totalTUs * fmin(x*x*2/kk, x*x)
			streamMACs += sm
			mrd := lv.inBytes * batchF
			mwr := lv.outBytes * batchF
			memRead += mrd
			memWrite += mwr
			if detail {
				res.Layers = append(res.Layers, LayerStat{
					Name: lv.name, Kind: lv.kind, Mapping: "tu-depthwise",
					Cycles: cyc, ComputeCycles: compute, Overhead: overhead,
					MACs: macs, MemReadBytes: mrd, MemWriteBytes: mwr, StreamMACs: sm,
				})
			}
		} else {
			// Vector-mapped layer (pool, eltwise, softmax, ...). XLA-style
			// fusion folds most elementwise work into the producing matrix
			// op's output stream, so only ~a quarter of the lane time is
			// exposed, and fused ops skip the full launch cost.
			vu := vops / (lanes * 2 * 0.5) // dual-issue lanes, stride/halo efficiency
			overhead := launchCycles*0.3 + syncPerCore*cores*0.25
			cyc = vu*0.25 + overhead
			mrd := lv.inBytes * batchF
			mwr := lv.outBytes * batchF
			memRead += mrd
			memWrite += mwr
			if detail {
				res.Layers = append(res.Layers, LayerStat{
					Name: lv.name, Kind: lv.kind, Mapping: "vector",
					Cycles: cyc, VUCycles: vu, Overhead: overhead,
					MemReadBytes: mrd, MemWriteBytes: mwr,
				})
			}
		}
		totalVecOps += vops
		res.Cycles += cyc
		mLayers.Inc()
		if detail {
			_, lspan := obs.Start(ctx, "perfsim.layer")
			lspan.SetStr("layer", lv.name)
			lspan.SetStr("mapping", res.Layers[len(res.Layers)-1].Mapping)
			lspan.SetFloat("cycles", cyc)
			lspan.SetFloat("macs", macs)
			lspan.End()
		}
	}
	mSimulations.Inc()

	res.TimeSec = res.Cycles / c.ClockHz()
	res.LatencySec = res.TimeSec
	res.FPS = batchF / res.TimeSec
	ops := 2 * totalMACs
	res.AchievedTOPS = guard.CorruptFloat("perfsim.achieved_tops", ops/res.TimeSec/1e12)
	res.Utilization = res.AchievedTOPS / c.PeakTOPS()
	// Finite-check the headline metrics. The common all-finite case is
	// decided with plain comparisons (guard.CheckFinites boxes its variadic
	// float64 pairs into interfaces, which allocates); the guard call runs
	// only on failure so the returned error is byte-identical to the
	// historical path.
	if nonFinite(res.Cycles) || nonFinite(res.TimeSec) || nonFinite(res.FPS) ||
		nonFinite(res.AchievedTOPS) || nonFinite(res.Utilization) {
		ferr := guard.CheckFinites(
			"cycles", res.Cycles, "time_sec", res.TimeSec, "fps", res.FPS,
			"achieved_tops", res.AchievedTOPS, "utilization", res.Utilization,
		)
		return fmt.Errorf("perfsim: %s batch %d: %w", p.g.Name, batch, ferr)
	}

	// Padded/bubble cell-cycles carry zeros: they burn clock and control
	// but toggle little datapath (~30% of a live MAC).
	effectiveMACs := totalMACs + 0.3*fmax(0, streamMACs-totalMACs)
	act.TUMACsPerSec = effectiveMACs / res.TimeSec
	act.VUOpsPerSec = totalVecOps / res.TimeSec
	act.SUInstrPerSec = cores * c.ClockHz() * 0.10
	act.MemReadBytesPerSec = memRead / res.TimeSec
	act.MemWriteBytesPerSec = memWrite / res.TimeSec
	act.NoCBytesPerSec = nocBytes / res.TimeSec
	act.OffChipBytesPerSec = hbmBytes / res.TimeSec
	res.Activity = act
	return nil
}

func offChipGBps(c *chip.Chip) float64 {
	var total float64
	for _, p := range c.Periph {
		switch p.Cfg.Kind.String() {
		case "hbm", "ddr":
			total += p.Cfg.GBps
		}
	}
	return total
}

// LatencyLimitedBatchCtx finds the paper's "latency limited batch size"
// (§III-B.2, with a 10 ms production SLO): the largest power-of-two batch up
// to 512 whose batch latency stays within the bound, or batch 1 when even
// that misses it. It prepares g once, runs the search with
// (*Prepared).LatencyLimitedInto, and returns the chosen batch with its
// detailed simulation (per-layer stats and spans, as SimulateCtx).
func LatencyLimitedBatchCtx(ctx context.Context, c *chip.Chip, g *graph.Graph, latencyBound float64, opt Options) (batch int, res *Result, err error) {
	defer guard.RecoverTo(&err)
	p, err := Prepare(g)
	if err != nil {
		return 0, nil, err
	}
	var a, b Result
	if batch, _, err = p.LatencyLimitedInto(ctx, c, latencyBound, opt, &a, &b); err != nil {
		return 0, nil, err
	}
	if res, err = p.simulateDetailed(ctx, c, batch, opt); err != nil {
		return 0, nil, err
	}
	return batch, res, nil
}
