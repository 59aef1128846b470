package dse

import (
	"context"
	"fmt"
	"strings"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/pat"
	"neurometer/internal/perfsim"
)

// Fig7Row is one series point of Fig. 7: throughput before and after the
// software optimizations, per workload and batch size.
type Fig7Row struct {
	Model     string
	Batch     int
	FPSBefore float64
	FPSAfter  float64
}

// Gain returns the optimization speedup.
func (r Fig7Row) Gain() float64 { return r.FPSAfter / r.FPSBefore }

// Fig7 reproduces the software-optimization ablation on the throughput
// reference point (64,2,2,4).
func Fig7(cs Constraints, models []*graph.Graph, batches []int) ([]Fig7Row, error) {
	cand, err := buildPoint(cs, Point{64, 2, 2, 4})
	if err != nil {
		return nil, err
	}
	ctx := context.TODO()
	var rows []Fig7Row
	for _, g := range models {
		for _, bs := range batches {
			after, err := perfsim.SimulateCtx(ctx, cand.Chip, g, bs, perfsim.DefaultOptions())
			if err != nil {
				return nil, err
			}
			before, err := perfsim.SimulateCtx(ctx, cand.Chip, g, bs, perfsim.NoOptimizations())
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig7Row{
				Model: g.Name, Batch: bs,
				FPSBefore: before.FPS, FPSAfter: after.FPS,
			})
		}
	}
	return rows, nil
}

func buildPoint(cs Constraints, p Point) (Candidate, error) {
	c, err := chip.BuildCached(cs.Config(p))
	if err != nil {
		return Candidate{}, err
	}
	return Candidate{
		Point: p, Chip: c,
		PeakTOPS: c.PeakTOPS(), AreaMM2: c.AreaMM2(), TDPW: c.TDPW(),
		PeakTOPSPerW: c.PeakTOPSPerWatt(), PeakTOPSPerTCO: c.PeakTOPSPerTCO(),
	}, nil
}

// Fig8Row is one x-axis entry of Fig. 8: per-component area and TDP plus
// the peak metrics.
type Fig8Row struct {
	Point          Point
	PeakTOPS       float64
	AreaMM2        float64
	TDPW           float64
	PeakTOPSPerW   float64
	PeakTOPSPerTCO float64
	AreaBreakdown  *pat.Breakdown
}

// Fig8 evaluates the representative design points' chip-level area/TDP
// breakdowns and peak efficiencies.
func Fig8(cands []Candidate) []Fig8Row {
	var rows []Fig8Row
	for _, c := range cands {
		rows = append(rows, Fig8Row{
			Point:          c.Point,
			PeakTOPS:       c.PeakTOPS,
			AreaMM2:        c.AreaMM2,
			TDPW:           c.TDPW,
			PeakTOPSPerW:   c.PeakTOPSPerW,
			PeakTOPSPerTCO: c.PeakTOPSPerTCO,
			AreaBreakdown:  c.Chip.AreaBreakdown(),
		})
	}
	return rows
}

// Fig9Row is one batch point of Fig. 9 for one model on (64,2,2,4).
type Fig9Row struct {
	Model      string
	Batch      int
	FPS        float64
	LatencyMS  float64
	MeetsSLO10 bool
}

// Fig9 sweeps batch sizes on the (64,2,2,4) reference point and reports
// throughput and latency per workload, plus the 10ms latency-limited batch.
func Fig9(cs Constraints, models []*graph.Graph, batches []int) ([]Fig9Row, map[string]int, error) {
	cand, err := buildPoint(cs, Point{64, 2, 2, 4})
	if err != nil {
		return nil, nil, err
	}
	ctx := context.TODO()
	var rows []Fig9Row
	limits := map[string]int{}
	for _, g := range models {
		for _, bs := range batches {
			r, err := perfsim.SimulateCtx(ctx, cand.Chip, g, bs, perfsim.DefaultOptions())
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, Fig9Row{
				Model: g.Name, Batch: bs, FPS: r.FPS,
				LatencyMS:  r.LatencySec * 1e3,
				MeetsSLO10: r.LatencySec <= 10e-3,
			})
		}
		lim, _, err := perfsim.LatencyLimitedBatchCtx(ctx, cand.Chip, g, 10e-3, perfsim.DefaultOptions())
		if err != nil {
			return nil, nil, err
		}
		limits[g.Name] = lim
	}
	return rows, limits, nil
}

// Fig10Regimes lists the batch regimes of Fig. 10 in execution order.
var Fig10Regimes = []string{"a-small", "b-medium", "c-large"}

// Fig10Hardened runs the three batch regimes of Fig. 10 over the candidate
// set — (a) batch 1, (b) 10ms-latency-limited batch, (c) batch 256 — as
// one RuntimeStudyHardened each under the hardening envelope h, with one
// span per regime study. A non-empty
// checkpointPath stores one checkpoint per batch regime at
// <checkpointPath>.<regime>.json; regimes run in Fig10Regimes order so an
// interrupted run resumes deterministically. h.Checkpoint is ignored (each
// regime gets its own).
func Fig10Hardened(ctx context.Context, cands []Candidate, models []*graph.Graph, h Hardening, checkpointPath string) (map[string][]RuntimeRow, error) {
	specs := map[string]BatchSpec{
		"a-small":  {Fixed: 1},
		"b-medium": {LatencyBound: 10e-3},
		"c-large":  {Fixed: 256},
	}
	opt := perfsim.DefaultOptions()
	out := map[string][]RuntimeRow{}
	for _, name := range Fig10Regimes {
		spec := specs[name]
		hr := h
		hr.Checkpoint = nil
		if checkpointPath != "" {
			ck, err := OpenCheckpoint(checkpointPath+"."+name+".json",
				StudyFingerprint(cands, models, spec, opt))
			if err != nil {
				return nil, err
			}
			hr.Checkpoint = ck
		}
		rows, err := RuntimeStudyHardened(ctx, cands, models, spec, opt, hr)
		if err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", name, err)
		}
		out[name] = rows
	}
	return out, nil
}

// FormatRuntimeRows renders a Fig. 10 style table.
func FormatRuntimeRows(rows []RuntimeRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %9s %9s %7s %8s %10s %12s\n",
		"point", "peakTOPS", "achTOPS", "util", "powerW", "TOPS/W", "TOPS/TCO")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %9.2f %9.2f %6.1f%% %8.1f %10.4f %12.6f\n",
			r.Point, r.PeakTOPS, r.AchievedTOPS, r.Utilization*100, r.PowerW,
			r.TOPSPerWatt, r.TOPSPerTCO*1e3)
	}
	return sb.String()
}
