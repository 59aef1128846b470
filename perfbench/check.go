package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"neurometer/internal/dse"
	"neurometer/internal/pat"
)

// digests are sha256 digests of a workload's outputs, by output name:
// "fig8" for the Fig. 8 rows and "fig10.<regime>" for each Fig. 10 table.
type digests map[string]string

func sum(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

func f64(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// fig8Text renders Fig. 8 rows with every float at full precision,
// including each row's whole area/power breakdown tree.
func fig8Text(rows []dse.Fig8Row) string {
	var sb strings.Builder
	var walk func(b *pat.Breakdown, depth int)
	walk = func(b *pat.Breakdown, depth int) {
		if b == nil {
			return
		}
		fmt.Fprintf(&sb, "%d %s %s %s\n", depth, b.Name, f64(b.AreaMM2), f64(b.PowerW))
		for _, c := range b.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s %s %s %s %s %s\n", r.Point, f64(r.PeakTOPS), f64(r.AreaMM2),
			f64(r.TDPW), f64(r.PeakTOPSPerW), f64(r.PeakTOPSPerTCO))
		walk(r.AreaBreakdown, 0)
	}
	return sb.String()
}

// fig10Digests digests each regime's table as the round-trip-exact CSV.
func fig10Digests(d digests, out map[string][]dse.RuntimeRow) {
	for _, regime := range dse.Fig10Regimes {
		d["fig10."+regime] = sum(dse.RuntimeRowsCSV(out[regime]))
	}
}

func fig8Digest(d digests, rows []dse.Fig8Row) {
	d["fig8"] = sum(fig8Text(rows))
}

// corruptOutputs changes one value of every output in place, as a broken
// model would; the self-test uses it to see the checks count failures.
func corruptOutputs(fig8 []dse.Fig8Row, fig10 map[string][]dse.RuntimeRow) {
	if len(fig8) > 0 {
		fig8[0].TDPW *= 1.0000001
	}
	for _, rows := range fig10 {
		if len(rows) > 0 {
			rows[0].AchievedTOPS *= 1.0000001
		}
	}
}

// same reports every output whose digest differs from want's.
func (d digests) same(want digests) error {
	var bad []string
	for name, w := range want {
		if got := d[name]; got != w {
			bad = append(bad, fmt.Sprintf("%s digest %s, want %s", name, got, w))
		}
	}
	if len(d) != len(want) {
		bad = append(bad, fmt.Sprintf("%d outputs, want %d", len(d), len(want)))
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("outputs differ: %s", strings.Join(bad, "; "))
}

// countRows is the number of Fig. 10 rows over all regimes.
func countRows(out map[string][]dse.RuntimeRow) int {
	n := 0
	for _, rows := range out {
		n += len(rows)
	}
	return n
}

// Pinned digests of the default seed's outputs (seed 0 = Table I). The
// frontier tables are byte-identical to the CSV files cmd/dse -fig 10 -csv
// writes (sha256sum of <prefix>.<regime>.csv gives the same digests); the
// full-set tables are warm_study's Fig. 10 over every feasible chip. A model
// change that moves any figure fails these checks until they are re-pinned
// deliberately: the failure message prints the new digests.
var (
	pinnedFig8          = "03f2340963981157100788c2310f665cbf923d32d0bdd0b74ddfd2b50a739b2b"
	pinnedFrontierFig10 = digests{
		"fig10.a-small":  "50ed6fa45aff7a648b86ad40863009639654c4f0790fb436b1e7f9028d31b2c8",
		"fig10.b-medium": "806ffd65b61826c7ec71dfc49975ef3fe0c36b9f21f591bea7c724ee792fe3c2",
		"fig10.c-large":  "89fe4ddcf89db36dddf1d85df65d2e26b46761613c631a6d908c7e3adb58c047",
	}
	pinnedFullSet = digests{
		"fig10.a-small":  "4a044b2ad195fa1cf8cbaa475a15cec02e3ff83930cfa8c6fb3244fd2c4ef9cd",
		"fig10.b-medium": "d9a30e3de3d281313484f8096ee277a28d34237dc93dbebc8ae4004ae9453d3d",
		"fig10.c-large":  "a570ab71beb17dbe120b6f8d130965ffb4e2c4801ab29f3b3244a834513e6ece",
	}
)

// pinnedFrontier is the cold sweep's pinned output: Fig. 8 and Fig. 10.
func pinnedFrontier() digests {
	d := digests{"fig8": pinnedFig8}
	for k, v := range pinnedFrontierFig10 {
		d[k] = v
	}
	return d
}

// checkPinned compares a seed-0 reference against the pinned digests; other
// seeds have no pins and are checked against their own reference only.
func checkPinned(seed int64, got, pinned digests) error {
	if seed != 0 {
		return nil
	}
	if err := got.same(pinned); err != nil {
		return fmt.Errorf("pinned default-seed output: %w", err)
	}
	return nil
}
