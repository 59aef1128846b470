package memarray

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"neurometer/internal/tech"
	"neurometer/internal/tech/techtest"
)

// matchReference builds cfg with both Build and referenceBuild and reports
// the first difference: error vs success, error text, Org, or the bits of
// any of the six PAT fields. cfg must not set TargetLatencyPS.
func matchReference(cfg Config) error {
	got, gotErr := Build(cfg)
	want, wantErr := referenceBuild(cfg)
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("Build err %v, reference err %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("Build err %q, reference err %q", gotErr, wantErr)
		}
		return nil
	}
	if got.Org != want.Org {
		return fmt.Errorf("org %+v, reference %+v", got.Org, want.Org)
	}
	fields := []struct {
		name      string
		got, want float64
	}{
		{"areaUM2", got.areaUM2, want.areaUM2},
		{"readPJ", got.readPJ, want.readPJ},
		{"writePJ", got.writePJ, want.writePJ},
		{"leakUW", got.leakUW, want.leakUW},
		{"accessPS", got.accessPS, want.accessPS},
		{"cyclePS", got.cyclePS, want.cyclePS},
	}
	for _, f := range fields {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Errorf("%s %v, reference %v (org %+v)", f.name, f.got, f.want, got.Org)
		}
	}
	return nil
}

// TestBuildMatchesReferenceCorpus replays every distinct memarray spec the
// figure drivers issue. testdata/specs.jsonl holds one JSON Config per
// line, recorded from cmd/dse -fig 7/8/9/10/0/-1, -fig 8 -full and
// cmd/validate.
func TestBuildMatchesReferenceCorpus(t *testing.T) {
	f, err := os.Open("testdata/specs.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		n++
		var cfg Config
		if err := json.Unmarshal(sc.Bytes(), &cfg); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if cfg.TargetLatencyPS != 0 {
			t.Fatalf("line %d sets a latency target; the reference is valid only without one", n)
		}
		if err := matchReference(cfg); err != nil {
			t.Errorf("line %d (%dB block %dB): %v", n, cfg.CapacityBytes, cfg.BlockBytes, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("corpus has %d specs, want 100", n)
	}
}

// TestBuildMatchesReferenceGrid covers the property-test sizes across the
// three cell families, with banks and ports searched, fixed, and pushed up
// by a throughput requirement.
func TestBuildMatchesReferenceGrid(t *testing.T) {
	type mode struct {
		name              string
		banks, rp, wp     int
		readBPC, writeBPC float64
	}
	modes := []mode{
		{name: "searched"},
		{name: "fixed", banks: 4, rp: 2, wp: 1},
		{name: "throughput", readBPC: 512, writeBPC: 128},
		{name: "fixed-banks-throughput", banks: 8, readBPC: 256, writeBPC: 256},
	}
	for _, cell := range []tech.MemCell{tech.CellSRAM, tech.CellDFF, tech.CellEDRAM} {
		for _, capBytes := range []int64{1 << 10, 8 << 10, 64 << 10, 1 << 20} {
			for _, blk := range []int{8, 32, 128} {
				for _, m := range modes {
					cfg := cfg28(capBytes, blk)
					cfg.Cell = cell
					cfg.Banks, cfg.ReadPorts, cfg.WritePorts = m.banks, m.rp, m.wp
					cfg.ReadBytesPerCycle, cfg.WriteBytesPerCycle = m.readBPC, m.writeBPC
					if err := matchReference(cfg); err != nil {
						t.Errorf("%s %dB block %dB %s: %v", cell, capBytes, blk, m.name, err)
					}
				}
			}
		}
	}
}

// FuzzBuildMatchesReference draws capacity, block, cell, banks, ports and
// throughput (never a latency target) and requires bit-exact agreement
// with the reference search.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add(uint16(1023), uint8(3), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), uint16(0))
	f.Add(uint16(63), uint8(0), uint8(1), uint8(3), uint8(2), uint8(1), uint16(64), uint16(32))
	f.Add(uint16(255), uint8(4), uint8(2), uint8(0), uint8(0), uint8(0), uint16(2048), uint16(1024))
	f.Fuzz(func(t *testing.T, kb uint16, blkSel, cellSel, banksSel, rpSel, wpSel uint8, readBPC, writeBPC uint16) {
		capBytes := int64(kb%2048+1) << 10 // 1KiB..2MiB
		blocks := []int{4, 8, 16, 32, 64, 128, 256}
		cells := []tech.MemCell{tech.CellSRAM, tech.CellDFF, tech.CellEDRAM}
		banks := 0 // searched
		if b := int(banksSel % 8); b > 0 {
			banks = 1 << (b - 1)
		}
		cfg := Config{
			Node:               techtest.MustByNode(28),
			Cell:               cells[int(cellSel)%len(cells)],
			CapacityBytes:      capBytes,
			BlockBytes:         blocks[int(blkSel)%len(blocks)],
			Banks:              banks,
			ReadPorts:          int(rpSel % 5), // 0 = searched
			WritePorts:         int(wpSel % 5),
			CyclePS:            cycle700MHz,
			ReadBytesPerCycle:  float64(readBPC % 4096),
			WriteBytesPerCycle: float64(writeBPC % 4096),
		}
		if err := matchReference(cfg); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	})
}
