// Brawny-vs-wimpy mini sweep: a condensed version of the paper's §III case
// study using the public API. Four design points spanning the brawny-wimpy
// spectrum are built under the Table I environment and evaluated on the
// three datacenter CNNs at small and large batch, reproducing the central
// tension: wimpy wins utilization, brawny wins throughput and efficiency.
package main

import (
	"context"
	"fmt"
	"log"

	"neurometer"
)

// point is one (X, N, Tx, Ty) tuple from the paper's design space.
type point struct{ x, n, tx, ty int }

func buildPoint(p point) (*neurometer.Chip, error) {
	tiles := p.tx * p.ty
	return neurometer.Build(neurometer.Config{
		Name:   fmt.Sprintf("(%d,%d,%d,%d)", p.x, p.n, p.tx, p.ty),
		TechNM: 28, ClockHz: 700e6,
		Tx: p.tx, Ty: p.ty,
		Core: neurometer.CoreConfig{
			NumTUs: p.n, TURows: p.x, TUCols: p.x,
			TUDataType: neurometer.Int8,
			HasSU:      true,
			Mem: []neurometer.MemSegment{
				{Name: "spad", CapacityBytes: int64(32<<20) / int64(tiles)},
			},
		},
		NoCBisectionGBps: 256,
		OffChip:          []neurometer.OffChipPort{{Kind: neurometer.HBMPort, GBps: 700}},
		AreaBudgetMM2:    500,
		PowerBudgetW:     300,
	})
}

func main() {
	points := []point{
		{256, 1, 1, 1}, // maximally brawny: TPU-v1-class single array
		{64, 2, 2, 4},  // the paper's throughput optimum
		{64, 4, 1, 2},  // the paper's efficiency optimum
		{8, 4, 4, 8},   // the paper's utilization optimum (wimpy)
	}
	ctx := context.Background()
	models := neurometer.Workloads()
	opt := neurometer.DefaultSimOptions()

	for _, batch := range []int{1, 256} {
		fmt.Printf("== batch %d (mean over ResNet/Inception/NasNet) ==\n", batch)
		fmt.Printf("%-14s %9s %9s %7s %9s %10s\n",
			"point", "peakTOPS", "achTOPS", "util", "runtimeW", "TOPS/W")
		for _, p := range points {
			chip, err := buildPoint(p)
			if err != nil {
				log.Fatal(err)
			}
			var ach, util, watts, weff float64
			for _, g := range models {
				sim, err := neurometer.SimulateCtx(ctx, chip, g, batch, opt)
				if err != nil {
					log.Fatal(err)
				}
				e := chip.Efficiency(sim.AchievedTOPS*1e12, sim.Activity)
				ach += sim.AchievedTOPS / 3
				util += sim.Utilization / 3
				watts += e.PowerW / 3
				weff += e.TOPSPerWatt / 3
			}
			fmt.Printf("%-14s %9.2f %9.2f %6.1f%% %9.1f %10.3f\n",
				chip.Cfg.Name, chip.PeakTOPS(), ach, util*100, watts, weff)
		}
		fmt.Println()
	}
	fmt.Println("expect: (8,4,4,8) leads utilization; (64,2,2,4) leads throughput;")
	fmt.Println("        (64,4,1,2) trades a modest share of throughput for efficiency.")
}
