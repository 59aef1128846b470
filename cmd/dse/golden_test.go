package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"neurometer/internal/dse"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/ from the current code instead of comparing against it")

// goldenDir holds the committed figure corpus: the byte-exact stdout of
// every cmd/dse figure, the -fig 10 regime CSVs, and cmd/validate's report.
const goldenDir = "../../testdata/golden"

// checkGolden byte-compares got against the named corpus file, or rewrites
// the file under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden corpus (regenerate with -update-golden only for a deliberate, documented change)\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenFigures regenerates every figure in process and pins it to the
// corpus, so no refactor can silently move a paper figure.
func TestGoldenFigures(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "fig10")
	for _, c := range []struct {
		name string
		fig  int
		full bool
		csv  string
	}{
		{"dse_fig7.txt", 7, false, ""},
		{"dse_fig8.txt", 8, false, ""},
		{"dse_fig9.txt", 9, false, ""},
		{"dse_fig10.txt", 10, false, csv},
		{"dse_fig10_full.txt", 10, true, ""},
		{"dse_fig0.txt", 0, false, ""},
		{"dse_fig-1.txt", -1, false, ""},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), &out, c.fig, c.full, hardenFlags{workers: dse.DefaultWorkers, csv: c.csv}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkGolden(t, c.name, out.Bytes())
	}
	for _, regime := range dse.Fig10Regimes {
		got, err := os.ReadFile(csv + "." + regime + ".csv")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "dse_fig10."+regime+".csv", got)
	}
}
