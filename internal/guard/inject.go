package guard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"neurometer/internal/obs"
)

// Deterministic fault injection.
//
// Instrumented code declares named sites — Inject at control-flow points,
// CorruptFloat at value-producing points. Production runs pay one atomic
// load per site visit (armed is zero, nothing else executes). Tests arm
// faults with Arm and drive exactly the Nth visit of a site into a panic,
// a delay, an error, or a NaN, proving the corresponding recovery path
// end to end without randomness. Schedule-driven tests (the chaos engine)
// arm a whole Plan at once: multiple faults across multiple sites, each
// deterministically targeted by hit count or by a seeded RNG.

// Fault describes what happens when an armed site is hit.
type Fault struct {
	// Skip ignores the first Skip hits of the site; the fault fires on
	// hit Skip+1. Deterministic targeting of "the third candidate".
	Skip int
	// Count limits how many times the fault fires (0 = every hit after
	// Skip).
	Count int

	// Panic makes the site panic with a recognizable value.
	Panic bool
	// Delay makes the site sleep (context-aware: an expired ctx cuts the
	// sleep short and surfaces through the site's error return).
	Delay time.Duration
	// Err makes the site return this error.
	Err error
	// NaN makes CorruptFloat replace the site's value with NaN.
	NaN bool
	// OnHit, when non-nil, runs synchronously as the fault fires (after
	// Delay, before Panic/Err). Tests use it to cancel contexts or take
	// snapshots at an exact, reproducible point in a sweep.
	OnHit func()
}

// PlanFault is one fault of a Plan: a Fault bound to a site, optionally
// armed probabilistically.
type PlanFault struct {
	// Site names the injection site this fault attaches to.
	Site string
	Fault
	// Prob, when in (0, 1), makes each otherwise-eligible hit fire with
	// this probability, decided by the plan's seeded RNG. The draw
	// sequence is serialized with hit accounting, so the number of hits
	// that fire is a pure function of (Seed, hit count) — probabilistic
	// arming stays replayable. 0 (and anything >= 1) means deterministic.
	Prob float64
}

// Plan is a schedule of faults across many sites, armed as one unit. The
// chaos engine (internal/chaos) generates Plans from seeded schedules so
// one episode can weave faults across layers; plain tests can also use it
// to arm several sites without stacking individual Arm calls.
type Plan struct {
	// Seed drives every probabilistic fault in the plan.
	Seed int64
	// Faults are armed in order. A site's first fault in the plan
	// replaces whatever was armed there (Arm semantics); subsequent
	// faults for the same site stack behind it and are consulted in plan
	// order on each hit.
	Faults []PlanFault
}

// armedFault is a Fault plus its arming mode and firing account.
type armedFault struct {
	Fault
	prob  float64    // (0,1) when probabilistic
	rng   *rand.Rand // non-nil iff probabilistic
	fired int        // times this fault actually fired
}

// siteState is one site's armed faults plus its shared hit counter. Skip
// is measured against the site's hits (visits), not against any single
// fault's, so "fire on the Nth visit" means the same thing whether the
// fault was armed alone or as part of a plan.
type siteState struct {
	hits int
	list []*armedFault
}

var (
	// armed is the fast-path gate: number of sites with faults armed.
	armed atomic.Int32

	injectMu sync.Mutex
	faults   map[string]*siteState

	// mFaults counts fired faults in the obs default registry.
	mFaults = obs.NewCounter("guard.faults_injected")
)

// armLocked installs af at site; callers hold injectMu. replace resets the
// site (hit counter and fault list) first, preserving Arm's historical
// replace semantics.
func armLocked(site string, af *armedFault, replace bool) {
	if faults == nil {
		faults = map[string]*siteState{}
	}
	st, exists := faults[site]
	if !exists {
		armed.Add(1)
		st = &siteState{}
		faults[site] = st
	}
	if replace {
		st.hits = 0
		st.list = st.list[:0]
	}
	st.list = append(st.list, af)
}

// Arm installs a fault at the named site and returns a disarm func: a
// one-fault, deterministic ArmPlan. Arming a site replaces any fault (or
// plan slice) already installed there. Safe for concurrent use with site
// hits; tests normally defer the disarm.
func Arm(site string, f Fault) (disarm func()) {
	return ArmPlan(Plan{Faults: []PlanFault{{Site: site, Fault: f}}})
}

// ArmPlan arms every fault of the plan and returns a disarm func covering
// all of the plan's sites. Probabilistic faults get independent RNG
// streams derived from Plan.Seed and their position, so adding a fault to
// a plan never perturbs the draws of the others.
func ArmPlan(p Plan) (disarm func()) {
	injectMu.Lock()
	replaced := map[string]bool{}
	for i, pf := range p.Faults {
		af := &armedFault{Fault: pf.Fault}
		if pf.Prob > 0 && pf.Prob < 1 {
			af.prob = pf.Prob
			af.rng = rand.New(rand.NewSource(p.Seed ^ (int64(i)+1)*-0x61C8864680B583EB))
		}
		armLocked(pf.Site, af, !replaced[pf.Site])
		replaced[pf.Site] = true
	}
	injectMu.Unlock()
	sites := make([]string, 0, len(replaced))
	for site := range replaced {
		sites = append(sites, site)
	}
	return func() {
		for _, site := range sites {
			Disarm(site)
		}
	}
}

// SiteStats is one armed site's hit accounting.
type SiteStats struct {
	// Hits counts site visits since arming.
	Hits int
	// Fired counts visits on which some armed fault actually fired.
	Fired int
}

// Stats snapshots the hit accounting of every currently armed site. Hit
// counting is serialized under the injection lock, so counts are exact
// even when parallel workers hammer the same site.
func Stats() map[string]SiteStats {
	injectMu.Lock()
	defer injectMu.Unlock()
	out := make(map[string]SiteStats, len(faults))
	for site, st := range faults {
		s := SiteStats{Hits: st.hits}
		for _, af := range st.list {
			s.Fired += af.fired
		}
		out[site] = s
	}
	return out
}

// Armed reports whether any fault is currently armed at any site. Caching
// layers (chip.BuildCached) consult it to bypass memoization while faults
// are live, so a cached result can never swallow an injected failure and
// hit-count targeting ("fire on the Nth visit") stays deterministic.
func Armed() bool { return armed.Load() > 0 }

// Disarm removes every fault at the named site, if any.
func Disarm(site string) {
	injectMu.Lock()
	defer injectMu.Unlock()
	if _, exists := faults[site]; exists {
		delete(faults, site)
		armed.Add(-1)
	}
}

// DisarmAll removes every armed fault (test cleanup).
func DisarmAll() {
	injectMu.Lock()
	defer injectMu.Unlock()
	armed.Add(-int32(len(faults)))
	faults = nil
}

// take records a hit at site and returns a copy of the first armed fault
// that fires on this hit, consulting the site's faults in arming order.
func take(site string) (Fault, bool) {
	injectMu.Lock()
	defer injectMu.Unlock()
	st, ok := faults[site]
	if !ok {
		return Fault{}, false
	}
	st.hits++
	for _, af := range st.list {
		if st.hits <= af.Skip {
			continue
		}
		if af.Count > 0 && af.fired >= af.Count {
			continue
		}
		if af.rng != nil && af.rng.Float64() >= af.prob {
			continue
		}
		af.fired++
		return af.Fault, true
	}
	return Fault{}, false
}

// Inject is a fault-injection site for control flow. With no fault armed
// it costs one atomic load. When the armed fault fires it sleeps Delay
// (bounded by ctx), runs OnHit, then panics or returns the fault error;
// an expired ctx during the delay returns the classified context error.
// A nil ctx is treated as background.
func Inject(ctx context.Context, site string) error {
	if armed.Load() == 0 {
		return nil
	}
	f, fire := take(site)
	if !fire {
		return nil
	}
	mFaults.Inc()
	if f.Delay > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		t := time.NewTimer(f.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			if f.OnHit != nil {
				f.OnHit()
			}
			return CtxErr(ctx)
		}
	}
	if f.OnHit != nil {
		f.OnHit()
	}
	if f.Panic {
		panic(fmt.Sprintf("guard: injected panic at site %q", site))
	}
	return f.Err
}

// CorruptFloat is a fault-injection site for values: it returns v, or NaN
// when the armed fault (with NaN set) fires. With no fault armed it costs
// one atomic load.
func CorruptFloat(site string, v float64) float64 {
	if armed.Load() == 0 {
		return v
	}
	f, fire := take(site)
	if !fire || !f.NaN {
		return v
	}
	mFaults.Inc()
	return math.NaN()
}
