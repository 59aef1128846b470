package fleet

import (
	"context"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// Dynamic fleet membership. The coordinator keeps one table of every worker
// it has ever heard of — seeded from the static Config.Workers list and
// extended at runtime by POST /v1/worker/register — and tracks each worker
// through a small state machine:
//
//	live ──(missed probes ≥ SuspectAfter, or breaker trips)──▶ suspect
//	suspect ──(missed probes ≥ EvictAfter)──▶ evicted
//	suspect/evicted ──(probe success or re-registration)──▶ live
//	any ──(POST /v1/worker/drain)──▶ draining
//	draining ──(missed probes ≥ EvictAfter)──▶ evicted
//	draining ──(re-registration)──▶ live
//
// Dispatch gating is the only consumer of the state: live members receive
// shards first, suspect members only when no live member admits one, and
// draining or evicted members receive nothing. Draining members finish the
// shards they already hold (nothing cancels an in-flight lease on a drain),
// and an evicted member's in-flight leases requeue through the ordinary
// lease-expiry path. A membership transition therefore only ever changes
// *who* evaluates a shard, never *what* merges back — the coordinator still
// merges outcomes by candidate index and still degrades any unresolved
// remainder to local evaluation — so tables, CSVs, and row JSON stay
// byte-identical to a serial run under any join/leave/crash/drain schedule.
//
// Observability: fleet.workers_live / fleet.workers_suspect /
// fleet.workers_draining / fleet.workers_evicted gauges track the table,
// and every transition emits a fleet.member_join / fleet.member_suspect /
// fleet.member_evict / fleet.member_drain trace event plus a structured
// log line.

// State is a member's position in the membership state machine.
type State int

const (
	// StateLive members receive new shards.
	StateLive State = iota
	// StateSuspect members have missed liveness probes (or tripped their
	// breaker); they receive new shards only when no live member can.
	StateSuspect
	// StateDraining members finish the shards they hold but receive no
	// new dispatch; set by POST /v1/worker/drain (SIGTERM announcement).
	StateDraining
	// StateEvicted members receive nothing; probe success or
	// re-registration readmits them as live.
	StateEvicted
)

// String renders the state for /readyz summaries, logs, and wire responses.
func (s State) String() string {
	switch s {
	case StateLive:
		return "live"
	case StateSuspect:
		return "suspect"
	case StateDraining:
		return "draining"
	case StateEvicted:
		return "evicted"
	}
	return "unknown"
}

// Defaults for the membership knobs (the cmd flag defaults).
const (
	// DefaultHeartbeat is the coordinator probe interval (and the worker
	// re-registration cadence under -join).
	DefaultHeartbeat = 2 * time.Second
	// DefaultSuspectAfter marks a worker suspect after this long without a
	// successful probe.
	DefaultSuspectAfter = 10 * time.Second
	// DefaultEvictAfter evicts a worker after this long without a
	// successful probe.
	DefaultEvictAfter = 30 * time.Second
)

// member is one worker's membership record. The url is immutable; state,
// lastOK and the breaker are guarded by the Membership mutex (breaker has
// its own internal lock — it is shared with the dispatch path).
type member struct {
	url     string
	seq     int // join order; keeps round-robin stable and config-faithful
	breaker *breaker

	state  State
	lastOK time.Time // last successful probe, eval, or (re-)registration
}

// Membership is the coordinator's worker table. Safe for concurrent use by
// the dispatch path, the probe loop, and the serve register/drain handlers.
type Membership struct {
	mu      sync.Mutex
	members map[string]*member
	nextSeq int

	suspectAfter time.Duration
	evictAfter   time.Duration

	gLive     *obs.Gauge
	gSuspect  *obs.Gauge
	gDraining *obs.Gauge
	gEvicted  *obs.Gauge
}

// MemberCounts is the membership summary /readyz exposes in coordinator
// mode, and what the CI chaos jobs gate on.
type MemberCounts struct {
	Live     int `json:"workers_live"`
	Suspect  int `json:"workers_suspect"`
	Draining int `json:"workers_draining"`
	Evicted  int `json:"workers_evicted"`
}

func newMembership(suspectAfter, evictAfter time.Duration) *Membership {
	return &Membership{
		members:      map[string]*member{},
		suspectAfter: suspectAfter,
		evictAfter:   evictAfter,
		gLive:        obs.NewGauge("fleet.workers_live"),
		gSuspect:     obs.NewGauge("fleet.workers_suspect"),
		gDraining:    obs.NewGauge("fleet.workers_draining"),
		gEvicted:     obs.NewGauge("fleet.workers_evicted"),
	}
}

// memberEvent emits one membership-transition trace event and counts it
// under fleet.member_events_total, so churn is visible on a metrics
// dashboard even when no trace is attached.
func memberEvent(ctx context.Context, name string, attrs ...obs.Attr) {
	mMemberEvents.Inc()
	obs.Event(ctx, name, attrs...)
}

// normalizeURL canonicalizes a worker address the way Config.Workers always
// has: trim trailing slashes, default the scheme to http.
func normalizeURL(url string) (string, error) {
	url = strings.TrimRight(strings.TrimSpace(url), "/")
	if url == "" {
		return "", guard.Invalid("fleet: empty worker URL")
	}
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	return url, nil
}

// seed adds the static Config.Workers list as live members (no events: the
// table is being constructed, nothing joined).
func (m *Membership) seed(urls []string, now time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, u := range urls {
		u, err := normalizeURL(u)
		if err != nil {
			return err
		}
		if _, ok := m.members[u]; ok {
			continue
		}
		m.members[u] = &member{
			url:     u,
			seq:     m.nextSeq,
			breaker: newBreaker(obs.NewGauge(obs.Name("fleet.breaker_state", "worker", metricName(u)))),
			state:   StateLive,
			lastOK:  now,
		}
		m.nextSeq++
	}
	m.updateGaugesLocked()
	return nil
}

// Register adds a worker to the table as live, or readmits one the table
// already knows (suspect, draining, or evicted → live, with the breaker
// reset so the first shard is not blocked by stale failure history).
// Re-registering a live member is an idempotent heartbeat: lastOK advances,
// nothing else changes. This is the /v1/worker/register entry point.
func (m *Membership) Register(ctx context.Context, url string, now time.Time) (State, error) {
	url, err := normalizeURL(url)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	mb, known := m.members[url]
	if !known {
		mb = &member{
			url:     url,
			seq:     m.nextSeq,
			breaker: newBreaker(obs.NewGauge(obs.Name("fleet.breaker_state", "worker", metricName(url)))),
			state:   StateLive,
			lastOK:  now,
		}
		m.members[url] = mb
		m.nextSeq++
	}
	readmitted := known && mb.state != StateLive
	mb.lastOK = now
	if readmitted {
		mb.state = StateLive
	}
	m.updateGaugesLocked()
	m.mu.Unlock()

	if !known || readmitted {
		mb.breaker.success() // fresh start: stale failure history cleared
		memberEvent(ctx, "fleet.member_join", obs.String("worker", url))
		slog.InfoContext(ctx, "fleet: worker joined", "worker", url, "readmitted", readmitted)
	}
	return StateLive, nil
}

// Drain marks a known worker draining: it finishes the shards it holds but
// receives no new dispatch. Draining is sticky — only re-registration (or
// eventual eviction once its probes stop answering) moves it out. This is
// the /v1/worker/drain entry point, fed by a worker's SIGTERM announcement.
func (m *Membership) Drain(ctx context.Context, url string) (State, error) {
	url, err := normalizeURL(url)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	mb, ok := m.members[url]
	if !ok {
		m.mu.Unlock()
		return 0, guard.Invalid("fleet: drain: unknown worker %s", url)
	}
	changed := mb.state != StateDraining
	mb.state = StateDraining
	m.updateGaugesLocked()
	m.mu.Unlock()

	if changed {
		memberEvent(ctx, "fleet.member_drain", obs.String("worker", url))
		slog.InfoContext(ctx, "fleet: worker draining", "worker", url)
	}
	return StateDraining, nil
}

// Counts returns the per-state member counts.
func (m *Membership) Counts() MemberCounts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.countsLocked()
}

func (m *Membership) countsLocked() MemberCounts {
	var c MemberCounts
	for _, mb := range m.members {
		switch mb.state {
		case StateLive:
			c.Live++
		case StateSuspect:
			c.Suspect++
		case StateDraining:
			c.Draining++
		case StateEvicted:
			c.Evicted++
		}
	}
	return c
}

// States returns every member's current state, keyed by normalized URL.
func (m *Membership) States() map[string]State {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]State, len(m.members))
	for u, mb := range m.members {
		out[u] = mb.state
	}
	return out
}

// urls returns every known member URL in join order.
func (m *Membership) urls() []string {
	out := []string{}
	for _, mb := range m.all() {
		out = append(out, mb.url)
	}
	return out
}

// all returns every member in join order — the probe loop's worklist.
func (m *Membership) all() []*member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*member, 0, len(m.members))
	for _, mb := range m.members {
		out = append(out, mb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// dispatchable returns the members eligible for new shards, live and
// suspect, each class in join order for a stable round-robin base.
// Draining and evicted members are never returned.
func (m *Membership) dispatchable() (live, suspect []*member) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mb := range m.members {
		switch mb.state {
		case StateLive:
			live = append(live, mb)
		case StateSuspect:
			suspect = append(suspect, mb)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	sort.Slice(suspect, func(i, j int) bool { return suspect[i].seq < suspect[j].seq })
	return live, suspect
}

// lookup returns the member for a (raw or normalized) URL, or nil.
func (m *Membership) lookup(url string) *member {
	url, err := normalizeURL(url)
	if err != nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.members[url]
}

// size returns the table size (every state).
func (m *Membership) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.members)
}

// markSuccess records a successful interaction (probe or shard eval) with a
// member: its liveness clock resets, and a suspect or evicted member is
// readmitted to live. Draining members stay draining — a drained worker
// finishing its last shard is not an application to rejoin.
func (m *Membership) markSuccess(ctx context.Context, mb *member, now time.Time) {
	m.mu.Lock()
	mb.lastOK = now
	readmitted := mb.state == StateSuspect || mb.state == StateEvicted
	if readmitted {
		mb.state = StateLive
	}
	m.updateGaugesLocked()
	m.mu.Unlock()

	if readmitted {
		memberEvent(ctx, "fleet.member_join", obs.String("worker", mb.url), obs.String("via", "probe"))
		slog.InfoContext(ctx, "fleet: worker readmitted", "worker", mb.url)
	}
}

// markSuspect moves a live member to suspect — the breaker-open feed into
// the membership layer. The liveness clock is NOT reset: eviction timing
// keys off lastOK, so a worker that keeps failing evals without ever
// answering a probe still ages toward eviction.
func (m *Membership) markSuspect(ctx context.Context, mb *member) {
	m.mu.Lock()
	changed := mb.state == StateLive
	if changed {
		mb.state = StateSuspect
	}
	m.updateGaugesLocked()
	m.mu.Unlock()

	if changed {
		memberEvent(ctx, "fleet.member_suspect", obs.String("worker", mb.url), obs.String("via", "breaker"))
		slog.WarnContext(ctx, "fleet: worker suspect", "worker", mb.url, "via", "breaker")
	}
}

// probeResult applies one liveness probe outcome. Success readmits (and
// resets the member's breaker, so a recovered worker is dispatchable
// immediately instead of waiting out a cooldown). Failure ages the member
// along live → suspect → evicted against the SuspectAfter / EvictAfter
// deadlines, measured from the last successful interaction; a draining
// member whose probes stop answering is evicted on the same clock, which is
// how drained-and-exited processes leave the table's active states.
func (m *Membership) probeResult(ctx context.Context, mb *member, ok bool, now time.Time) {
	if ok {
		m.markSuccess(ctx, mb, now)
		mb.breaker.success()
		return
	}
	m.mu.Lock()
	age := now.Sub(mb.lastOK)
	var to State = -1
	switch {
	case mb.state == StateEvicted:
		// Already out; nothing to age.
	case age >= m.evictAfter:
		to = StateEvicted
	case age >= m.suspectAfter && mb.state == StateLive:
		to = StateSuspect
	}
	if to >= 0 {
		mb.state = to
	}
	m.updateGaugesLocked()
	m.mu.Unlock()

	switch to {
	case StateSuspect:
		memberEvent(ctx, "fleet.member_suspect", obs.String("worker", mb.url), obs.String("via", "probe"))
		slog.WarnContext(ctx, "fleet: worker suspect", "worker", mb.url, "via", "probe", "age", age)
	case StateEvicted:
		memberEvent(ctx, "fleet.member_evict", obs.String("worker", mb.url))
		slog.WarnContext(ctx, "fleet: worker evicted", "worker", mb.url, "age", age)
	}
}

// updateGaugesLocked refreshes the fleet.workers_* gauges; callers hold mu.
func (m *Membership) updateGaugesLocked() {
	c := m.countsLocked()
	m.gLive.Set(float64(c.Live))
	m.gSuspect.Set(float64(c.Suspect))
	m.gDraining.Set(float64(c.Draining))
	m.gEvicted.Set(float64(c.Evicted))
}
