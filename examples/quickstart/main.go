// Quickstart: describe an ML accelerator at the architecture level, let
// NeuroMeter derive everything else, and read the power/area/timing report —
// then pair the chip with the bundled performance simulator for runtime
// power and efficiency, exactly the Fig. 1 flow of the paper.
package main

import (
	"context"
	"fmt"
	"log"

	"neurometer"
)

func main() {
	// A small datacenter inference chip: 8 cores, each with two 64x64 Int8
	// systolic tensor units, a scalar control core, and a 4 MiB slice of
	// the distributed on-chip memory. Everything else — vector unit lanes,
	// vector register file ports, memory banking, NoC link widths — is
	// auto-scaled by the framework.
	cfg := neurometer.Config{
		Name:    "quickstart",
		TechNM:  28,       // technology node
		ClockHz: 700e6,    // target clock; alternatively set TargetTOPS
		Tx:      2, Ty: 4, // 2x4 tile grid (ring <=4 tiles, mesh otherwise)
		Core: neurometer.CoreConfig{
			NumTUs: 2, TURows: 64, TUCols: 64,
			TUDataType: neurometer.Int8,
			HasSU:      true,
			Mem: []neurometer.MemSegment{
				{Name: "spad", CapacityBytes: 4 << 20},
			},
		},
		NoCBisectionGBps: 256,
		OffChip: []neurometer.OffChipPort{
			{Kind: neurometer.HBMPort, GBps: 700},
		},
	}

	chip, err := neurometer.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The default output: power, area, timing, with component breakdowns
	// and the hardware critical path.
	fmt.Println(chip.Report())

	// Runtime analysis: run ResNet-50 at batch 8 through the performance
	// simulator and feed the activity factors back for runtime power.
	resnet, err := neurometer.Workload("resnet")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	sim, err := neurometer.SimulateCtx(ctx, chip, resnet, 8, neurometer.DefaultSimOptions())
	if err != nil {
		log.Fatal(err)
	}
	eff := chip.Efficiency(sim.AchievedTOPS*1e12, sim.Activity)

	fmt.Printf("== ResNet-50 @ batch 8 ==\n")
	fmt.Printf("throughput:  %.0f fps (latency %.2f ms)\n", sim.FPS, sim.LatencySec*1e3)
	fmt.Printf("achieved:    %.2f of %.2f peak TOPS (%.1f%% utilization)\n",
		sim.AchievedTOPS, chip.PeakTOPS(), sim.Utilization*100)
	fmt.Printf("runtime:     %.1f W -> %.3f TOPS/W\n", eff.PowerW, eff.TOPSPerWatt)

	// And the 10ms-SLO batch size the paper's datacenter study uses.
	batch, _, err := neurometer.LatencyLimitedBatchCtx(ctx, chip, resnet, 10e-3, neurometer.DefaultSimOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("latency-limited batch (10ms SLO): %d\n", batch)
}
