package main

// The benchmark's self-test: one short pass per workload must report every
// metric BENCHMARK.json names, with its unit, in both modes, and a
// corrupted output must be counted as a failure. Run it from perfbench/:
//
//	go test -timeout 20m .
//
// It takes about a minute on two cores: each timed pass sets its workload
// up several times, and each traced pass runs the layer probes.

import (
	"context"
	"math"
	"os"
	"testing"
)

func TestMain(m *testing.M) {
	// The benchmark runs from the repository root.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := execute(context.Background(), options{workload: sw.Name, seed: 0, seconds: 0.5, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", sw.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d", sw.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, %s lists %d", sw.Name, traced, len(res.Metrics), specFile, len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", sw.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: metric %s in %s, want %s", sw.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
					t.Errorf("%s trace=%t: metric %s = %v", sw.Name, traced, m.Name, got.Value)
				}
			}
			if !traced {
				for _, m := range want {
					if res.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", sw.Name, m.Name)
					}
				}
			}
		}
	}
}

func TestCorruptedOutputIsAFailure(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range spec.Workloads {
		// A seed without pinned digests: the measured outputs must still be
		// caught against the run's own reference.
		res, err := execute(context.Background(), options{workload: sw.Name, seed: 3, seconds: 0.5, corrupt: true})
		if err != nil {
			t.Fatalf("%s: %v", sw.Name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted outputs not counted: correct=%t failed=%d attempted=%d",
				sw.Name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 30, End: 60}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 60 {
		t.Errorf("covered = %d, want 60", got)
	}
}
