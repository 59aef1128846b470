package perfsim_test

import (
	"context"
	"fmt"

	"neurometer/internal/chip"
	"neurometer/internal/maclib"
	"neurometer/internal/perfsim"
	"neurometer/internal/periph"
	"neurometer/internal/workloads"
)

// The prepared path amortizes workload preparation across many candidate
// chips: the graph is validated and its per-layer closed-form inputs
// computed once, then one SimulateInto call per candidate fills a single
// scratch Result. Every candidate's headline metrics are bit-identical to
// a per-candidate SimulateCtx call; copy out what must outlive the next
// call, since it overwrites the scratch.
func ExamplePrepared_SimulateInto() {
	build := func(x int) *chip.Chip {
		c, err := chip.BuildCached(chip.Config{
			Name: fmt.Sprintf("x%d", x), TechNM: 28, ClockHz: 700e6,
			Tx: 2, Ty: 2,
			Core: chip.CoreConfig{
				NumTUs: 2, TURows: x, TUCols: x, TUDataType: maclib.Int8,
				HasSU: true,
				Mem:   []chip.MemSegment{{Name: "spad", CapacityBytes: 8 << 20}},
			},
			NoCBisectionGBps: 256,
			OffChip:          []chip.OffChipPort{{Kind: periph.HBMPort, GBps: 700}},
		})
		if err != nil {
			panic(err)
		}
		return c
	}
	candidates := []*chip.Chip{build(32), build(64), build(128)}
	g, err := workloads.ByName("alexnet")
	if err != nil {
		fmt.Println("workload:", err)
		return
	}
	p, err := perfsim.Prepare(g)
	if err != nil {
		fmt.Println("prepare:", err)
		return
	}
	ctx := context.Background()
	var res perfsim.Result
	for _, c := range candidates {
		if err := p.SimulateInto(ctx, c, 8, perfsim.DefaultOptions(), &res); err != nil {
			fmt.Println("simulate:", err)
			return
		}
		single, _ := perfsim.SimulateCtx(ctx, c, g, 8, perfsim.DefaultOptions())
		fmt.Printf("%s matches single-candidate run: %v\n", c.Cfg.Name, res.FPS == single.FPS)
	}
	// Output:
	// x32 matches single-candidate run: true
	// x64 matches single-candidate run: true
	// x128 matches single-candidate run: true
}

// SimulateCtx maps a workload graph onto a built chip and returns per-batch
// runtime metrics with per-layer detail. It is pure — the chip and graph
// are read-only — so sweeps call it concurrently against shared instances.
func ExampleSimulateCtx() {
	c, err := chip.BuildCached(chip.Config{
		Name: "example", TechNM: 28, ClockHz: 700e6,
		Tx: 2, Ty: 2,
		Core: chip.CoreConfig{
			NumTUs: 2, TURows: 64, TUCols: 64, TUDataType: maclib.Int8,
			HasSU: true,
			Mem:   []chip.MemSegment{{Name: "spad", CapacityBytes: 8 << 20}},
		},
		NoCBisectionGBps: 256,
		OffChip:          []chip.OffChipPort{{Kind: periph.HBMPort, GBps: 700}},
	})
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	g, err := workloads.ByName("alexnet")
	if err != nil {
		fmt.Println("workload:", err)
		return
	}
	res, err := perfsim.SimulateCtx(context.Background(), c, g, 8, perfsim.DefaultOptions())
	if err != nil {
		fmt.Println("simulate:", err)
		return
	}
	fmt.Println("batch:", res.Batch)
	fmt.Println("layers simulated:", len(res.Layers) == len(g.Layers))
	fmt.Println("throughput positive:", res.FPS > 0)
	fmt.Println("utilization in (0,1]:", res.Utilization > 0 && res.Utilization <= 1)
	// Output:
	// batch: 8
	// layers simulated: true
	// throughput positive: true
	// utilization in (0,1]: true
}
