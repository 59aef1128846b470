// Command perfbench is the repository benchmark. It runs one of four seeded
// workloads against the NeuroMeter packages in-process, checks every output
// it produces, and prints its metrics by name and unit:
//
//	cold_sweep    the paper's Table I sweep from a cold build cache
//	warm_study    the Fig. 10 study over prebuilt chips (perfsim + dse pool)
//	store_resume  the Fig. 10 frontier study written to and resumed from rstore
//	serve_mixed   closed-loop simulate/build traffic against an in-process server
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload cold_sweep --seed 0 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics listed in BENCHMARK.json; with --trace 1 it carries the per-layer
// metrics, measured by a separate traced run plus timed calls into each
// layer's public functions. Seed 0 is the paper's Table I exactly and its
// outputs are checked against pinned digests. See perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
)

// specFile is the benchmark definition, read from the repository root.
const specFile = "BENCHMARK.json"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// corrupt flips one value of every checked output before its check,
	// so the self-test can see corrupted outputs counted as failures.
	corrupt bool
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: cold_sweep, warm_study, store_resume or serve_mixed")
	flag.Int64Var(&o.seed, "seed", 0, "input seed (0 = the paper's Table I, with pinned output digests)")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *traceFlag == 1

	res, err := execute(context.Background(), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload and returns the result line. The metrics in it
// are exactly those BENCHMARK.json lists for the mode, with its units; a
// metric the run failed to produce is an error, not a silent gap.
func execute(ctx context.Context, o options) (result, error) {
	spec, err := loadSpec(specFile)
	if err != nil {
		return result{}, err
	}
	if o.seconds <= 0 {
		return result{}, errors.New("--seconds must be positive")
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown --workload %q", o.workload)
	}
	listed := false
	for _, sw := range spec.Workloads {
		listed = listed || sw.Name == o.workload
	}
	if !listed {
		return result{}, fmt.Errorf("workload %q is not listed in %s", o.workload, specFile)
	}

	in := newInputs(o.seed)
	printHost(o, in)
	rep := newReport()
	if o.trace {
		err = runTraced(ctx, w, in, o, rep)
	} else {
		err = runTimed(ctx, w, in, o, rep)
	}
	if err != nil {
		return result{}, err
	}
	rep.printText()

	want := spec.EndToEnd
	if o.trace {
		want = spec.PerLayer
	}
	res := result{
		Attempted: rep.tally.attempted.Load(),
		Failed:    rep.tally.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		v, ok := rep.metrics[m.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if v.Unit != m.Unit {
			return result{}, fmt.Errorf("metric %s measured in %s, %s lists %s", m.Name, v.Unit, specFile, m.Unit)
		}
		res.Metrics[m.Name] = v
	}
	if res.Attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// printText writes the human-readable record: every metric measured, with
// its unit and sample count where it has one, and the failure messages.
func (r *report) printText() {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		line := fmt.Sprintf("metric %-40s %14.6g %s", n, m.Value, m.Unit)
		if c, ok := r.samples[n]; ok {
			line += fmt.Sprintf("  n=%d", c)
		}
		fmt.Println(line)
	}
	for _, f := range r.tally.failureLog() {
		fmt.Println("failure", f)
	}
	attempted, failed := r.tally.attempted.Load(), r.tally.failed.Load()
	ratio := 0.0
	if attempted > 0 {
		ratio = float64(failed) / float64(attempted)
	}
	fmt.Printf("metric %-40s %14.6g ratio  failed=%d attempted=%d\n", "fail_ratio", ratio, failed, attempted)
}
