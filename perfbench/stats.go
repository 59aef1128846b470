package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"neurometer/internal/obs"
)

// tally counts the operations of a run and keeps their latencies by kind.
// Operations are recorded from several goroutines in serve_mixed.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	results   atomic.Int64 // results delivered: study rows or responses

	mu       sync.Mutex
	lat      map[string][]float64 // milliseconds, by operation kind
	rss      []float64            // resident set in MiB, sampled after each operation
	busy     time.Duration        // measured operation time (see addBusy)
	cpu      time.Duration        // process CPU time over the same operations
	failures []string
}

// maxFailureLog bounds the failure messages kept for the text record.
const maxFailureLog = 8

func newTally() *tally { return &tally{lat: map[string][]float64{}} }

// rssSamples bounds the resident-set samples to the first operations of a
// run, so rss_mb_p50 describes a fixed amount of work: serve_mixed's build
// cache grows with every request, and a faster server must not read as a
// bigger one.
const rssSamples = 1000

// op records one completed operation of the given kind and samples the
// resident set.
func (t *tally) op(kind string, d time.Duration) {
	t.mu.Lock()
	sample := len(t.rss) < rssSamples
	t.mu.Unlock()
	rss := 0.0
	if sample {
		rss = rssMB()
	}
	t.mu.Lock()
	t.lat[kind] = append(t.lat[kind], float64(d.Nanoseconds())/1e6)
	if sample {
		t.rss = append(t.rss, rss)
	}
	t.mu.Unlock()
}

// addBusy adds the wall and process CPU time of measured operations: the
// denominators of results_per_s and cpu_ms_per_result.
func (t *tally) addBusy(wall, cpu time.Duration) {
	t.mu.Lock()
	t.busy += wall
	t.cpu += cpu
	t.mu.Unlock()
}

// stopwatch times an operation in wall-clock and process CPU time. CPU
// time excludes what the hypervisor steals from the VM, so it stays steady
// on a shared host where wall time does not; it includes every goroutine
// of the process, the garbage collector's among them.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: cpuTime()} }

func (w stopwatch) stop() (wall, cpu time.Duration) {
	return time.Since(w.wall), cpuTime() - w.cpu
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// check counts one output check (or operation) and records its failure.
func (t *tally) check(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.failures) < maxFailureLog {
		t.failures = append(t.failures, err.Error())
	}
	t.mu.Unlock()
}

// merge adds o's checks and failure messages to t.
func (t *tally) merge(o *tally) {
	t.attempted.Add(o.attempted.Load())
	t.failed.Add(o.failed.Load())
	fails := o.failureLog()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range fails {
		if len(t.failures) < maxFailureLog {
			t.failures = append(t.failures, f)
		}
	}
}

func (t *tally) latencies(kind string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.lat[kind]...)
}

func (t *tally) failureLog() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.failures...)
}

// report collects the metrics of one run.
type report struct {
	tally   *tally
	metrics map[string]metricValue
	samples map[string]int // sample count behind a percentile metric
}

func newReport() *report {
	return &report{tally: newTally(), metrics: map[string]metricValue{}, samples: map[string]int{}}
}

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// setPct sets a percentile metric and remembers its sample count.
func (r *report) setPct(name, unit string, xs []float64, q float64) {
	r.set(name, unit, quantile(xs, q))
	r.samples[name] = len(xs)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// counts is a snapshot of the program's own obs counters.
type counts map[string]int64

func counterSnapshot() counts { return obs.Default().Snapshot().Counters }

// since returns each counter's increase after the snapshot.
func (c counts) since() counts {
	out := counts{}
	for name, v := range obs.Default().Snapshot().Counters {
		out[name] = v - c[name]
	}
	return out
}

// rssMB is the process's current resident set size in MiB.
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memDelta is the allocation activity between two runtime.MemStats reads.
type memDelta struct {
	bytes, mallocs uint64
	gcs            uint32
}

func (m *memDelta) add(o memDelta) {
	m.bytes += o.bytes
	m.mallocs += o.mallocs
	m.gcs += o.gcs
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := memStats()
	return memDelta{
		bytes:   after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs,
		gcs:     after.NumGC - before.NumGC,
	}
}

// cpuModel reads the CPU model name, so records from different hosts are
// never compared by mistake.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// hostStamp identifies the measuring host and the run's inputs.
func hostStamp(o options, in inputs) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d workers=%d go=%s seed=%d workload=%s trace=%t seconds=%g",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), in.workers, runtime.Version(),
		o.seed, o.workload, o.trace, o.seconds)
}

func printHost(o options, in inputs) {
	fmt.Println("host", hostStamp(o, in))
	fmt.Println("inputs", in.describe())
}
