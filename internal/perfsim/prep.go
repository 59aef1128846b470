package perfsim

import (
	"context"
	"math"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/guard"
)

// Graph preparation: everything about a layer that does not depend on the
// chip being evaluated — MAC/vector-op counts, im2col GEMM dimensions,
// activation footprints, the depthwise kernel packing factor — is a pure
// function of the graph, yet the historical SimulateCtx recomputed it from
// the layer table on every call (§"where time goes" in PERFORMANCE.md: ~15%
// of a simulation). Prepare hoists that work into a read-only table computed
// once per workload, which SimulateInto amortizes across every candidate
// sharing the graph.

// layerVals is the chip-independent precomputation for one layer. All
// quantities are stored as float64 exactly as the simulator's closed forms
// consume them, so a prepared simulation performs bit-identical arithmetic
// to the unprepared path.
type layerVals struct {
	name     string
	kind     graph.OpKind
	isMatrix bool
	macs     float64 // per-frame MACs
	vops     float64 // per-frame vector ops
	m0       float64 // im2col GEMM M per frame (matrix ops only)
	k0       float64 // im2col GEMM K
	n0       float64 // im2col GEMM N
	inBytes  float64 // per-frame input activation bytes
	outBytes float64 // per-frame output activation bytes
	kk       float64 // depthwise/pool effective kernel footprint
}

// Prepared is a validated workload graph with its per-layer closed-form
// inputs precomputed. It is immutable after Prepare and safe for concurrent
// use by any number of goroutines — the dse sweep engine shares one
// Prepared per workload across its whole worker pool.
type Prepared struct {
	g      *graph.Graph
	layers []layerVals
	params float64 // float64(g.Params()), for the weights-residency test
}

// Prepare validates g once and precomputes the per-layer quantities every
// simulation of g needs. Callers that evaluate many chips against one
// workload should Prepare once and loop SimulateInto over one scratch
// Result; SimulateCtx re-prepares on every call.
func Prepare(g *graph.Graph) (*Prepared, error) {
	if g == nil {
		return nil, guard.Invalid("perfsim: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, guard.Invalid("perfsim: %v", err)
	}
	p := &Prepared{
		g:      g,
		layers: make([]layerVals, len(g.Layers)),
		params: float64(g.Params()),
	}
	for i := range g.Layers {
		l := &g.Layers[i]
		lv := &p.layers[i]
		lv.name = l.Name
		lv.kind = l.Kind
		lv.isMatrix = l.Kind.IsMatrixOp()
		lv.macs = float64(l.MACs())
		lv.vops = float64(l.VectorOps())
		if lv.isMatrix {
			m0, k0, n0 := l.GEMM()
			lv.m0, lv.k0, lv.n0 = float64(m0), float64(k0), float64(n0)
		}
		lv.inBytes = float64(l.InBytes())
		lv.outBytes = float64(l.OutBytes())
		lv.kk = math.Max(1, float64(l.KH*l.KW))
		if l.Kind == graph.GlobalPool {
			lv.kk = math.Min(float64(l.InH*l.InW), 64)
		}
	}
	return p, nil
}

// Graph returns the underlying workload graph.
func (p *Prepared) Graph() *graph.Graph { return p.g }

// SimulateInto runs one prepared simulation into caller-owned scratch,
// fully overwriting *res (the Layers backing array is reused but left
// empty — per-layer stats are not recorded on this path). It allocates
// nothing in the steady state and produces headline metrics bit-identical
// to SimulateCtx. res must not be nil. This is the fast path: evaluating N
// candidates against one workload is one Prepare and a loop of SimulateInto
// calls into one scratch Result.
func (p *Prepared) SimulateInto(ctx context.Context, c *chip.Chip, batch int, opt Options, res *Result) error {
	if c == nil {
		return guard.Invalid("perfsim: nil chip")
	}
	if batch <= 0 {
		return guard.Invalid("perfsim: batch must be positive, got %d", batch)
	}
	if err := guard.Inject(ctx, "perfsim.simulate"); err != nil {
		return err
	}
	return simulateInto(ctx, c, p, batch, opt, res, false)
}

// LatencyLimitedInto is the paper's latency-limited batch search
// (§III-B.2) on the prepared path: it returns the largest power-of-two
// batch up to 512 whose batch latency stays within the bound, probing 1,
// 2, 4, ... and stopping at the first probe over the bound; batch 1 is
// returned even if it misses the bound. It double-buffers between the two
// caller-owned Results a and b and returns whichever holds the chosen
// batch's simulation; the other holds the first over-bound probe and
// should be treated as garbage.
func (p *Prepared) LatencyLimitedInto(ctx context.Context, c *chip.Chip, latencyBound float64, opt Options, a, b *Result) (int, *Result, error) {
	if err := p.SimulateInto(ctx, c, 1, opt, a); err != nil {
		return 0, nil, err
	}
	best, bestRes, spare := 1, a, b
	for bs := 2; bs <= 512; bs *= 2 {
		if err := p.SimulateInto(ctx, c, bs, opt, spare); err != nil {
			return 0, nil, err
		}
		if spare.LatencySec > latencyBound {
			break
		}
		best, bestRes, spare = bs, spare, bestRes
	}
	return best, bestRes, nil
}
