package dse

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/perfsim"
	"neurometer/internal/rstore"
)

// The result-store binding: a candidate evaluation is a pure function of
// (chip config, workload set, batch regime, simulator options), so that
// tuple — not the study it appeared in — is the content address of its
// RuntimeRow. Two studies sharing a design point share its stored result;
// a shard evaluated on a fleet worker lands under the same fingerprint the
// coordinator would have used, because chip.Config and the shard fields
// round-trip exactly through JSON.
//
// Trust boundary: stored bytes are verified three ways before they can
// replace an evaluation — the rstore envelope checksum, the embedded
// fingerprint, and decodeStoredRow's own checks (the payload must
// deserialize, carry the expected design point, and have finite metrics,
// the same guard.CheckFinites gate a fresh evaluation passes). Any failure
// quarantines the entry and the candidate evaluates normally.

// resultStoreVersion is folded into every candidate fingerprint, so a
// change to the RuntimeRow payload schema orphans (rather than
// misinterprets) entries written by older builds.
const resultStoreVersion = 1

// mStoreHits counts candidate evaluations satisfied from the result store.
var mStoreHits = obs.NewCounter("dse.candidates_from_store")

// CandidateFingerprint derives the content address of one candidate
// evaluation. Unlike studyFingerprint it is per-candidate and uses exact
// (%+v) renderings throughout — a lossily formatted latency bound must not
// alias two different batch regimes onto one stored result.
func CandidateFingerprint(cfg chip.Config, models []string, spec BatchSpec, opt perfsim.Options) string {
	fp := fmt.Sprintf("rstore/v%d|cfg=%s|spec=%+v|opt=%+v|models=", resultStoreVersion, cfg.Fingerprint(), spec, opt)
	for i, m := range models {
		if i > 0 {
			fp += ","
		}
		fp += m
	}
	return fp
}

// modelNames projects a workload set onto the name list both
// CandidateFingerprint and the shard protocol use.
func modelNames(models []*graph.Graph) []string {
	names := make([]string, len(models))
	for i, g := range models {
		names[i] = g.Name
	}
	return names
}

// encodeStoredRow serializes a RuntimeRow for the store. JSON float
// encoding is round-trip exact, so a decoded row is bit-identical to the
// evaluated one — the property the byte-identity tests pin down.
func encodeStoredRow(row RuntimeRow) ([]byte, error) {
	b, err := json.Marshal(row)
	if err != nil {
		// Unreachable for a CheckFinites-clean row; degrade to "not
		// persisted" rather than fail an evaluation that succeeded.
		return nil, guard.Invalid("dse: encode stored row: %v", err)
	}
	return b, nil
}

// decodeStoredRow deserializes and verifies a stored payload: it must
// parse, describe the expected design point, and pass the same finiteness
// gate a fresh evaluation passes. Failures classify as guard.ErrCorrupt so
// the caller quarantines the entry.
func decodeStoredRow(payload []byte, want Point) (RuntimeRow, error) {
	var row RuntimeRow
	if err := json.Unmarshal(payload, &row); err != nil {
		return RuntimeRow{}, guard.Corrupt("dse: stored row does not deserialize: %v", err)
	}
	if row.Point != want {
		return RuntimeRow{}, guard.Corrupt("dse: stored row is for %s, wanted %s", row.Point, want)
	}
	if err := guard.CheckFinites(
		"peak_tops", row.PeakTOPS, "achieved_tops", row.AchievedTOPS,
		"utilization", row.Utilization, "power_w", row.PowerW,
		"tops_per_w", row.TOPSPerWatt, "tops_per_tco", row.TOPSPerTCO,
	); err != nil {
		return RuntimeRow{}, guard.Corrupt("dse: stored row rejected: %v", err)
	}
	return row, nil
}

// lookupStoredRow consults the result store for one candidate; ok reports
// a fully verified hit. A nil cache, a miss, and every flavor of store
// fault all return ok=false — the caller evaluates.
func lookupStoredRow(ctx context.Context, cache *rstore.Cache, fp string, want Point) (RuntimeRow, bool) {
	var row RuntimeRow
	ok := cache.Lookup(ctx, fp, func(payload []byte) error {
		r, err := decodeStoredRow(payload, want)
		if err != nil {
			return err
		}
		row = r
		return nil
	})
	if ok {
		mStoreHits.Inc()
	}
	return row, ok
}

// storeRow best-effort persists a successfully evaluated row — local or
// reported by a remote worker — under fp. Failures are never stored: they
// can depend on the run (injected faults, deadlines, panics), so a failed
// candidate evaluates again next time. A nil cache stores nothing.
func storeRow(ctx context.Context, cache *rstore.Cache, fp string, row RuntimeRow) {
	if cache == nil {
		return
	}
	b, err := encodeStoredRow(row)
	if err != nil {
		slog.WarnContext(ctx, "dse: result not persisted", "point", row.Point.String(), "err", err)
		return
	}
	cache.Add(fp, b)
}
