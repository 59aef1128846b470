package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"

	"neurometer/internal/dse"
	"neurometer/internal/graph"
)

// inputs are everything a workload is given, all derived from the seed.
type inputs struct {
	seed    int64
	cs      dse.Constraints
	models  []*graph.Graph
	workers int // pool workers and client goroutines: never above nproc
}

// Seeded perturbation ranges of the constraint set. Seed 0 is Table I
// exactly; other seeds draw the tech node, the clock, and the total
// distributed memory (hence per-core memory) in memStep steps from these
// ranges, and keep the X/N/tile sweep. The ranges are narrow on purpose:
// they change every output while keeping the work per sweep, and the
// Fig. 10 frontier size, close to Table I's, so figures from different
// seeds can be pooled. (Sweep cost grows with memory: 30 vs 34 MiB moved
// it by about 10%. Above 700 MHz the largest designs exceed the 92 TOPS cap
// and the frontier shrinks from 47 to 35 points.)
var (
	techChoices = []int{27, 28, 29}
	clockMHzLo  = 670
	clockMHzHi  = 700
	memLo       = int64(31 << 20)
	memSteps    = 8 // up to 33 MiB
	memStep     = int64(256 << 10)
)

func newInputs(seed int64) inputs {
	cs := dse.TableI()
	if seed != 0 {
		r := rand.New(rand.NewSource(seed))
		cs.TechNM = techChoices[r.Intn(len(techChoices))]
		cs.ClockHz = float64(clockMHzLo+r.Intn(clockMHzHi-clockMHzLo+1)) * 1e6
		cs.MemBytes = memLo + int64(r.Intn(memSteps+1))*memStep
	}
	workers := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p < workers {
		workers = p
	}
	return inputs{seed: seed, cs: cs, models: dse.DefaultModels(), workers: workers}
}

func (in inputs) describe() string {
	return fmt.Sprintf("tech_nm=%d clock_mhz=%g mem_mib=%g tops_cap=%g area_mm2=%g power_w=%g",
		in.cs.TechNM, in.cs.ClockHz/1e6, float64(in.cs.MemBytes)/(1<<20), in.cs.TOPSCap,
		in.cs.AreaBudgetMM2, in.cs.PowerBudgetW)
}

// ---- serve_mixed request mix -------------------------------------------

// buildShare is the fraction of serve_mixed requests that build a chip
// from a fresh inline configuration; the rest simulate a preset.
const buildShare = 0.2

var (
	servePresets = []string{"tpuv1", "tpuv2", "eyeriss"}
	serveModels  = []string{"resnet", "inception", "nasnet", "alexnet", "bert", "mobilenet"}
	serveMaxBat  = 128
)

// inlineConfig is the apicfg JSON accelerator description of one point of
// the serve_mixed build space.
type inlineConfig struct {
	Name    string  `json:"name"`
	TechNM  int     `json:"tech_nm"`
	ClockHz float64 `json:"clock_hz"`
	Tx      int     `json:"tx"`
	Ty      int     `json:"ty"`
	Core    struct {
		NumTUs     int         `json:"num_tus"`
		TURows     int         `json:"tu_rows"`
		TUCols     int         `json:"tu_cols"`
		TUDataType string      `json:"tu_data_type"`
		HasSU      bool        `json:"has_su"`
		Mem        []inlineMem `json:"mem"`
	} `json:"core"`
	NoCBisectionGBps float64      `json:"noc_bisection_gbps"`
	OffChip          []inlinePort `json:"off_chip"`
}

type inlineMem struct {
	Name          string `json:"name"`
	CapacityBytes int64  `json:"capacity_bytes"`
}

type inlinePort struct {
	Kind string  `json:"kind"`
	GBps float64 `json:"gbps"`
}

// The build space: 5 TU sizes x 3 TU counts x 6 grids x 6 scratchpad sizes
// x 3 clocks x 3 tech nodes x 2 NoC bisections = 9720 configurations, all
// unbudgeted and all buildable.
var (
	spaceX      = []int{8, 16, 32, 64, 128}
	spaceN      = []int{1, 2, 4}
	spaceGrids  = [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 4}, {4, 4}, {4, 8}}
	spaceSpadKB = []int64{128, 256, 512, 1024, 2048, 4096}
	spaceMHz    = []float64{500, 600, 700}
	spaceTech   = []int{16, 28, 45}
	spaceBisect = []float64{128, 256}
)

func buildSpaceSize() int {
	return len(spaceX) * len(spaceN) * len(spaceGrids) * len(spaceSpadKB) *
		len(spaceMHz) * len(spaceTech) * len(spaceBisect)
}

// spaceConfig decodes index i of the build space into its JSON description.
// The name carries the prefix and index, so two prefixes never share a
// build-cache entry.
func spaceConfig(prefix string, i int) json.RawMessage {
	var c inlineConfig
	c.Name = fmt.Sprintf("%s-%d", prefix, i)
	pick := func(n int) int { v := i % n; i /= n; return v }
	x := spaceX[pick(len(spaceX))]
	c.Core.NumTUs = spaceN[pick(len(spaceN))]
	g := spaceGrids[pick(len(spaceGrids))]
	kb := spaceSpadKB[pick(len(spaceSpadKB))]
	c.ClockHz = spaceMHz[pick(len(spaceMHz))] * 1e6
	c.TechNM = spaceTech[pick(len(spaceTech))]
	c.NoCBisectionGBps = spaceBisect[pick(len(spaceBisect))]
	c.Tx, c.Ty = g[0], g[1]
	c.Core.TURows, c.Core.TUCols, c.Core.TUDataType, c.Core.HasSU = x, x, "int8", true
	c.Core.Mem = []inlineMem{{Name: "spad", CapacityBytes: kb << 10}}
	c.OffChip = []inlinePort{{Kind: "hbm", GBps: 700}}
	raw, err := json.Marshal(c)
	if err != nil {
		panic(err) // a fixed struct of plain fields always encodes
	}
	return raw
}

// simRequest is one serve_mixed simulate request.
type simRequest struct {
	Preset   string `json:"preset"`
	Workload string `json:"workload"`
	Batch    int    `json:"batch"`
}

// requestStream draws one client's request sequence. Build requests take
// configurations in the order of a seeded permutation of the build space
// shared by all clients (next), so no configuration is built twice in a
// run and every build is cold.
type requestStream struct {
	rng  *rand.Rand
	perm []int
	next func() int
}

// nextRequest returns the request kind and body.
func (s *requestStream) nextRequest() (kind string, sim simRequest, cfgIndex int) {
	if s.rng.Float64() < buildShare {
		return "build", simRequest{}, s.perm[s.next()%len(s.perm)]
	}
	return "simulate", simRequest{
		Preset:   servePresets[s.rng.Intn(len(servePresets))],
		Workload: serveModels[s.rng.Intn(len(serveModels))],
		Batch:    1 + s.rng.Intn(serveMaxBat),
	}, 0
}
