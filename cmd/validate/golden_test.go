package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/validate.txt from the current code instead of comparing against it")

// TestGoldenReport pins the full validation report to the committed
// corpus (testdata/golden/validate.txt, the byte-exact stdout of
// cmd/validate).
func TestGoldenReport(t *testing.T) {
	const path = "../../testdata/golden/validate.txt"
	var got bytes.Buffer
	if err := run(context.Background(), &got, "all"); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("validation report differs from the golden corpus (regenerate with -update-golden only for a deliberate, documented change)\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want)
	}
}
