// Command validate reproduces the paper's §II-C validation experiments
// (Figs. 3-5): it builds the TPU-v1, TPU-v2 and Eyeriss models and compares
// chip-level area/TDP and component shares against the published numbers.
//
// Exit codes: 0 success; 2 invalid config or infeasible build; 130
// canceled (SIGINT); 1 any other failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"neurometer/internal/guard"
	"neurometer/internal/refchips"
)

func main() {
	which := flag.String("chip", "all", "chip to validate: tpuv1 | tpuv2 | eyeriss | all")
	flag.Parse()

	// Validation units are quick, but a SIGINT between them still exits 130
	// instead of pretending the remainder passed.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Stdout, *which)
	stopSignals()
	if err != nil {
		// A structured one-line error (kind from the guard taxonomy,
		// grep-friendly for CI log scraping) and the taxonomy exit code.
		guard.Exit("validate", err)
	}
}

// run writes the validation report for the selected chip(s) to w.
func run(ctx context.Context, w io.Writer, which string) error {
	report := func(name string, f func() (refchips.Report, error)) error {
		if err := guard.CtxErr(ctx); err != nil {
			return err
		}
		rep, err := f()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(w, rep)
		return nil
	}
	switch which {
	case "tpuv1":
		return report("tpuv1", refchips.ValidateTPUv1)
	case "tpuv2":
		return report("tpuv2", refchips.ValidateTPUv2)
	case "eyeriss":
		return report("eyeriss", refchips.ValidateEyeriss)
	case "all":
		for _, u := range []struct {
			name string
			f    func() (refchips.Report, error)
		}{
			{"tpuv1", refchips.ValidateTPUv1},
			{"tpuv2", refchips.ValidateTPUv2},
			{"eyeriss", refchips.ValidateEyeriss},
		} {
			if err := report(u.name, u.f); err != nil {
				return err
			}
		}
		if r, wr, err := refchips.VMemPorts(); err == nil {
			fmt.Fprintf(w, "tpu-v2 vmem ports found by optimizer: %dR%dW (paper: 2R1W)\n", r, wr)
		}
		if pe, err := refchips.EyerissPEAreaMM2(); err == nil {
			fmt.Fprintf(w, "eyeriss PE area: %.4f mm2 (published ~0.05 mm2)\n", pe)
		}
		return nil
	}
	return guard.Invalid("unknown chip %q", which)
}
