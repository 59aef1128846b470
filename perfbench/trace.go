package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. It is
// the benchmark's own: the program's internal obs tracing stays off in every
// run. Spans are kept in memory and written out when the run ends. A nil
// *tracer records nothing, which is how the timed run calls the same code.
type tracer struct {
	run   string
	start time.Time

	mu    sync.Mutex
	spans []span
}

// span is one recorded interval. Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
}

func newTracer(run string) *tracer { return &tracer{run: run, start: time.Now()} }

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, Run: t.run})
	return len(t.spans)
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTime is one span name's totals: calls, inclusive time, and self time
// (inclusive time minus the part of it covered by child spans).
type layerTime struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// traceSummary is what one pass over the recorded spans gives: per-name
// totals, and the root spans' summed duration with the part of it their
// children cover.
type traceSummary struct {
	layers    []layerTime // largest self time first
	rootNS    int64
	coveredNS int64
}

// summary computes the per-name totals and the root totals.
func (t *tracer) summary() traceSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var sum traceSummary
	byName := map[string]*layerTime{}
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		dur := s.End - s.Start
		cov := covered(s, children[s.ID])
		lt.Calls++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(dur-cov) / 1e6
		if s.Parent == 0 {
			sum.rootNS += dur
			sum.coveredNS += cov
		}
	}
	for _, lt := range byName {
		sum.layers = append(sum.layers, *lt)
	}
	sort.Slice(sum.layers, func(i, j int) bool { return sum.layers[i].SelfMS > sum.layers[j].SelfMS })
	return sum
}

// rootCoverage is the share of the root spans' time covered by their
// children: how much of each operation the layer spans account for.
func (s traceSummary) rootCoverage() float64 {
	return ratio(float64(s.coveredNS), float64(s.rootNS))
}

// rootTotalMS is the summed duration of the root spans.
func (s traceSummary) rootTotalMS() float64 { return float64(s.rootNS) / 1e6 }

// totalMS is the summed duration of the spans with the given name.
func (s traceSummary) totalMS(name string) float64 {
	for _, lt := range s.layers {
		if lt.Name == name {
			return lt.TotalMS
		}
	}
	return 0
}

// covered is the length of the union of the children's intervals clipped
// to the parent's: concurrent children are not counted twice.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// traceFile is the document a traced run writes.
type traceFile struct {
	Host   string      `json:"host"`
	Layers []layerTime `json:"layers"`
	Spans  []span      `json:"spans"`
}

// write saves the spans and the per-layer self times under dir.
func (t *tracer) write(dir, host string, layers []layerTime) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	doc := traceFile{Host: host, Layers: layers, Spans: append([]span(nil), t.spans...)}
	t.mu.Unlock()
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.run+".trace.json")
	return path, os.WriteFile(path, raw, 0o644)
}
