package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"neurometer/internal/apicfg"
	"neurometer/internal/chip"
	"neurometer/internal/dse"
	"neurometer/internal/fleet"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/perfsim"
	"neurometer/internal/rstore"
	"neurometer/internal/workloads"
)

// Config sizes the server's robustness envelope. The zero value of any
// field falls back to the DefaultConfig value.
type Config struct {
	// BuildLimit / SimulateLimit bound concurrent executions per endpoint;
	// StudyLimit bounds concurrently *running* study jobs; WorkerLimit
	// bounds concurrent fleet shard evaluations (/v1/worker/eval).
	BuildLimit    int
	SimulateLimit int
	StudyLimit    int
	WorkerLimit   int
	// QueueDepth bounds how many admitted requests may wait for a slot per
	// endpoint; beyond it requests shed immediately.
	QueueDepth int
	// MaxQueuedJobs bounds submitted-but-not-running study jobs.
	MaxQueuedJobs int
	// AdmissionTimeout bounds how long a queued request waits for a slot.
	AdmissionTimeout time.Duration
	// RequestTimeout is the default per-request deadline (tightened per
	// request with ?timeout_ms=).
	RequestTimeout time.Duration
	// ShedWatermark sheds build/simulate requests while dse.eval_inflight
	// is at or above it (0 disables cost-aware shedding).
	ShedWatermark float64
	// DegradedAfter consecutive 5xx responses trip /readyz degraded
	// (0 falls back to the default; negative disables the watchdog).
	DegradedAfter int
	// Workers is the dse evaluation pool size for study jobs.
	Workers int
	// MaxBodyBytes bounds request bodies; an overflowing body is rejected
	// with 413 and kind=too-large.
	MaxBodyBytes int64
	// RetryAfterJitter widens the Retry-After hint on 429 responses by a
	// uniform 0..RetryAfterJitter seconds, de-synchronizing shed clients
	// that would otherwise all retry on the same tick. Negative disables.
	RetryAfterJitter int
	// Results, when non-nil, is the persistent content-addressed result
	// store shared by this process: study jobs read through it
	// (dse.Hardening.Results) and /v1/worker/eval consults it before
	// evaluating shard candidates, so a worker that already knows an
	// answer serves it from disk. It is also how study jobs survive a
	// restart: an interrupted job's completed candidates are in the store,
	// so resubmitting it resumes from store hits. nil disables result
	// caching (jobs still run, but do not survive a restart); store faults
	// degrade to evaluation and never fail a request.
	Results *rstore.Cache
	// Dispatch, when non-nil, is installed as dse.Hardening.Dispatch for
	// study jobs — typically fleet.Coordinator.Dispatch, making this
	// process the coordinator of a worker fleet. Candidates the dispatcher
	// cannot resolve are evaluated in-process.
	Dispatch func(ctx context.Context, sh dse.Shard, report func(dse.ShardOutcome))
	// Membership, when non-nil, makes this process a fleet coordinator:
	// POST /v1/worker/register and /v1/worker/drain feed this table, and
	// /readyz carries its per-state worker counts. Typically
	// fleet.Coordinator.Membership() alongside Dispatch.
	Membership *fleet.Membership
	// Join, when non-empty, makes this process a fleet worker that
	// announces itself to the coordinator at this base URL: it registers at
	// startup, re-registers every JoinInterval (self-healing a suspicion or
	// eviction), and announces drain on Shutdown before the listener
	// closes. Requires Advertise — the URL the coordinator should dispatch
	// to for this worker.
	Join         string
	Advertise    string
	JoinInterval time.Duration
	// AccessLog, when non-nil, receives one structured line per request on
	// the model endpoints (request id, route, status, disposition, latency,
	// slow flag). nil disables access logging.
	AccessLog *slog.Logger
	// SlowRequest is the latency at or above which an access-log line is
	// flagged slow=true (0 falls back to the default; negative disables).
	SlowRequest time.Duration
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		BuildLimit:       8,
		SimulateLimit:    4,
		StudyLimit:       1,
		WorkerLimit:      2,
		RetryAfterJitter: 3,
		QueueDepth:       16,
		MaxQueuedJobs:    8,
		AdmissionTimeout: time.Second,
		RequestTimeout:   30 * time.Second,
		DegradedAfter:    5,
		Workers:          dse.DefaultWorkers,
		MaxBodyBytes:     1 << 20,
		SlowRequest:      time.Second,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.BuildLimit == 0 {
		c.BuildLimit = d.BuildLimit
	}
	if c.SimulateLimit == 0 {
		c.SimulateLimit = d.SimulateLimit
	}
	if c.StudyLimit == 0 {
		c.StudyLimit = d.StudyLimit
	}
	if c.WorkerLimit == 0 {
		c.WorkerLimit = d.WorkerLimit
	}
	if c.RetryAfterJitter == 0 {
		c.RetryAfterJitter = d.RetryAfterJitter
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.MaxQueuedJobs == 0 {
		c.MaxQueuedJobs = d.MaxQueuedJobs
	}
	if c.AdmissionTimeout == 0 {
		c.AdmissionTimeout = d.AdmissionTimeout
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.DegradedAfter == 0 {
		c.DegradedAfter = d.DegradedAfter
	}
	if c.Workers == 0 {
		c.Workers = d.Workers
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = d.SlowRequest
	}
	return c
}

// Server is the neurometerd HTTP service. Create with New, mount Handler
// (or ListenAndServe), and always Shutdown — it owns running study jobs.
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	http *http.Server
	wd   *watchdog
	jobs *jobStore

	limBuild  *limiter
	limSim    *limiter
	limWorker *limiter
	accessLog *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   chan struct{} // closed when Shutdown begins
	stopOnce   sync.Once
	stopErr    error

	joinCancel context.CancelFunc // non-nil when the join loop is running
	joinDone   chan struct{}
}

// New builds a server from the config (zero fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	obs.RegisterBuildInfo() // the build_info gauge is visible on /metricz
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		wd:         &watchdog{threshold: int64(cfg.DegradedAfter)},
		limBuild:   newLimiter("chip.build", cfg.BuildLimit, cfg.QueueDepth, cfg.AdmissionTimeout, cfg.ShedWatermark),
		limSim:     newLimiter("perfsim.simulate", cfg.SimulateLimit, cfg.QueueDepth, cfg.AdmissionTimeout, cfg.ShedWatermark),
		limWorker:  newLimiter("fleet.shard", cfg.WorkerLimit, cfg.QueueDepth, cfg.AdmissionTimeout, 0),
		accessLog:  cfg.AccessLog,
		baseCtx:    ctx,
		baseCancel: cancel,
		draining:   make(chan struct{}),
	}
	s.jobs = newJobStore(s)
	// Constructed here, not in Serve, so Shutdown never races the Serve
	// goroutine's first instructions.
	s.http = &http.Server{Handler: s.mux}

	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	s.mux.HandleFunc("GET /metricz", s.metricz)
	s.mux.Handle("POST /v1/chip/build", s.handle("chip.build", s.limBuild, s.buildHandler))
	s.mux.Handle("POST /v1/perfsim/simulate", s.handle("perfsim.simulate", s.limSim, s.simulateHandler))
	s.mux.Handle("POST /v1/perfsim/simulate-batch", s.handle("perfsim.simulate_batch", s.limSim, s.simulateBatchHandler))
	s.mux.Handle("POST /v1/dse/study", s.handle("dse.study", nil, s.studySubmit))
	s.mux.Handle("GET /v1/dse/study/{id}", s.handle("dse.study.get", nil, s.studyGet))
	s.mux.Handle("POST /v1/worker/eval", s.handle("worker.eval", s.limWorker, s.workerEval))
	s.mux.Handle("POST /v1/worker/register", s.handle("worker.register", s.limWorker, s.workerRegister))
	s.mux.Handle("POST /v1/worker/drain", s.handle("worker.drain", s.limWorker, s.workerDrain))
	if cfg.Join != "" && cfg.Advertise != "" {
		jctx, jcancel := context.WithCancel(context.Background())
		s.joinCancel = jcancel
		s.joinDone = make(chan struct{})
		go s.joinLoop(jctx)
	}
	return s
}

// Handler exposes the routed middleware stack (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.http.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains the server in the documented order: close the listener,
// drain in-flight connections within the ctx deadline, cancel running
// study jobs and wait for them to unwind, then log the final
// metrics snapshot. Idempotent (a SIGTERM/SIGINT double-fire drains once);
// afterwards /readyz reports 503 until the process exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() {
		close(s.draining)
		// Fleet worker: stop the join loop first (a late re-registration
		// must not undo the drain), then announce drain to the coordinator
		// while the listener is still open — leased shards finish and
		// report, new dispatch goes elsewhere.
		if s.joinCancel != nil {
			s.joinCancel()
			<-s.joinDone
		}
		s.announceDrain(ctx)
		httpErr := s.http.Shutdown(ctx) // listener close + connection drain
		jobsErr := s.jobs.shutdown(ctx) // cancel studies, wait for them to unwind
		s.baseCancel()
		snap := obs.Default().Snapshot()
		slog.Info("serve: final metrics snapshot",
			"requests", snap.Counters["serve.requests_total"],
			"shed", snap.Counters["serve.shed_total"],
			"responses_5xx", snap.Counters["serve.responses_5xx"],
			"jobs_submitted", snap.Counters["serve.jobs_submitted"])
		s.stopErr = httpErr
		if s.stopErr == nil {
			s.stopErr = jobsErr
		}
	})
	return s.stopErr
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// ---- health & metrics -----------------------------------------------------

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// readyzBody is the /readyz wire format.
type readyzBody struct {
	Ready               bool   `json:"ready"`
	Reason              string `json:"reason,omitempty"`
	ConsecutiveFailures int64  `json:"consecutive_failures"`
	RunningJobs         int    `json:"running_jobs"`
	// Fleet is the coordinator's membership summary (coordinator mode
	// only): per-state worker counts, so load balancers and the CI chaos
	// jobs can gate on fleet health without scraping metrics.
	Fleet *fleet.MemberCounts `json:"fleet,omitempty"`
}

func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	body := readyzBody{
		Ready:               true,
		ConsecutiveFailures: s.wd.consecutive.Load(),
		RunningJobs:         s.jobs.running(),
	}
	if s.cfg.Membership != nil {
		c := s.cfg.Membership.Counts()
		body.Fleet = &c
	}
	switch {
	case s.isDraining():
		body.Ready, body.Reason = false, "draining"
	case s.wd.isDegraded():
		body.Ready, body.Reason = false, "degraded: consecutive request failures"
	}
	status := http.StatusOK
	if !body.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// metricz serves the registry snapshot: human-readable text by default,
// ?format=json for the structured form, ?format=prom for the Prometheus
// text exposition format a scraper consumes. All three renderings are
// deterministically ordered, so CI can diff consecutive scrapes.
func (s *Server) metricz(w http.ResponseWriter, r *http.Request) {
	obs.UpdateRuntimeMetrics()
	snap := obs.Default().Snapshot()
	switch r.URL.Query().Get("format") {
	case "json":
		writeJSON(w, http.StatusOK, snap)
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(snap.Prometheus())
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, snap.Text())
	}
}

// ---- /v1/chip/build -------------------------------------------------------

// ChipRequest selects a chip: a bundled preset or an inline apicfg JSON
// description (exactly one).
type ChipRequest struct {
	Preset string          `json:"preset,omitempty"`
	Config json.RawMessage `json:"config,omitempty"`
}

// resolve builds the requested chip. Presets go through the process-wide
// chip.BuildCached memo; inline configs are built afresh, because the memo
// never evicts and every distinct client body would stay in it for the
// life of the process.
func (cr ChipRequest) resolve() (*chip.Chip, error) {
	cfg, err := apicfg.Resolve(cr.Preset, cr.Config)
	if err != nil {
		return nil, err
	}
	if cr.Preset != "" {
		return chip.BuildCached(cfg)
	}
	return chip.Build(cfg)
}

func (s *Server) buildHandler(r *http.Request) (int, any, error) {
	var req ChipRequest
	if err := decodeBody(r, &req); err != nil {
		return 0, nil, err
	}
	if err := guard.CtxErr(r.Context()); err != nil {
		return 0, nil, err
	}
	c, err := req.resolve()
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, c.JSONReport(), nil
}

// ---- /v1/perfsim/simulate -------------------------------------------------

// SimulateRequest runs one workload at one batch size on a chip.
type SimulateRequest struct {
	ChipRequest
	Workload string           `json:"workload"`
	Batch    int              `json:"batch"`
	Options  *perfsim.Options `json:"options,omitempty"` // nil = all optimizations on
}

// SimulateResponse is the runtime summary (mirrors the cmd/neurometer
// -workload output).
type SimulateResponse struct {
	Chip         string  `json:"chip"`
	Workload     string  `json:"workload"`
	Batch        int     `json:"batch"`
	FPS          float64 `json:"fps"`
	LatencyMS    float64 `json:"latency_ms"`
	AchievedTOPS float64 `json:"achieved_tops"`
	Utilization  float64 `json:"utilization"`
	PowerW       float64 `json:"power_w"`
	TOPSPerWatt  float64 `json:"tops_per_watt"`
	TOPSPerTCO   float64 `json:"tops_per_tco"`
}

func (s *Server) simulateHandler(r *http.Request) (int, any, error) {
	var req SimulateRequest
	if err := decodeBody(r, &req); err != nil {
		return 0, nil, err
	}
	g, err := workloads.ByName(req.Workload)
	if err != nil {
		return 0, nil, guard.Invalid("%v", err)
	}
	c, err := req.resolve()
	if err != nil {
		return 0, nil, err
	}
	opt := perfsim.DefaultOptions()
	if req.Options != nil {
		opt = *req.Options
	}
	batch := req.Batch
	if batch == 0 {
		batch = 1
	}
	res, err := perfsim.SimulateCtx(r.Context(), c, g, batch, opt)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, newSimulateResponse(c, g.Name, res), nil
}

// newSimulateResponse summarizes one simulation of workload on c.
func newSimulateResponse(c *chip.Chip, workload string, res *perfsim.Result) SimulateResponse {
	e := c.Efficiency(res.AchievedTOPS*1e12, res.Activity)
	return SimulateResponse{
		Chip:         c.Cfg.Name,
		Workload:     workload,
		Batch:        res.Batch,
		FPS:          res.FPS,
		LatencyMS:    res.LatencySec * 1e3,
		AchievedTOPS: res.AchievedTOPS,
		Utilization:  res.Utilization,
		PowerW:       e.PowerW,
		TOPSPerWatt:  e.TOPSPerWatt,
		TOPSPerTCO:   e.TOPSPerTCO,
	}
}

// ---- /v1/perfsim/simulate-batch -------------------------------------------

// maxBatchConfigs bounds the candidate list of one simulate-batch request.
// The endpoint exists to amortize workload preparation across candidates,
// not to smuggle a whole design-space sweep past the study-job machinery —
// use POST /v1/dse/study for sweeps that need resume and admission as
// long-running work.
const maxBatchConfigs = 256

// SimulateBatchRequest evaluates one workload at one batch size across many
// candidate chips in a single call. The workload graph is validated and
// prepared once and shared by every candidate (perfsim.Prepare, then one
// (*Prepared).SimulateInto per candidate into one scratch Result).
type SimulateBatchRequest struct {
	Workload string           `json:"workload"`
	Batch    int              `json:"batch"`
	Options  *perfsim.Options `json:"options,omitempty"` // nil = all optimizations on
	Configs  []ChipRequest    `json:"configs"`
}

// SimulateBatchEntry is one candidate's outcome: a result, or a failure in
// (kind, error) form — the same taxonomy classes error responses carry. A
// failed candidate never disturbs its neighbors.
type SimulateBatchEntry struct {
	Result *SimulateResponse `json:"result,omitempty"`
	Kind   string            `json:"kind,omitempty"`
	Err    string            `json:"error,omitempty"`
}

// SimulateBatchResponse is the simulate-batch wire format. Results[i]
// corresponds to Configs[i].
type SimulateBatchResponse struct {
	Workload string               `json:"workload"`
	Batch    int                  `json:"batch"`
	Failed   int                  `json:"failed"`
	Results  []SimulateBatchEntry `json:"results"`
}

// simulateBatchHandler runs one workload across many candidate chips.
// Request-level problems (unknown workload, no/too many configs, invalid
// batch) fail the call; per-candidate problems (unresolvable config,
// infeasible chip, non-finite metrics) land in that candidate's entry with
// status 200. Admission, deadline, and body-size limits are the simulate
// endpoint's — one batch call occupies one simulate slot.
func (s *Server) simulateBatchHandler(r *http.Request) (int, any, error) {
	var req SimulateBatchRequest
	if err := decodeBody(r, &req); err != nil {
		return 0, nil, err
	}
	if len(req.Configs) == 0 {
		return 0, nil, guard.Invalid("simulate-batch: no configs")
	}
	if len(req.Configs) > maxBatchConfigs {
		return 0, nil, guard.Invalid("simulate-batch: %d configs exceeds the %d limit",
			len(req.Configs), maxBatchConfigs)
	}
	g, err := workloads.ByName(req.Workload)
	if err != nil {
		return 0, nil, guard.Invalid("%v", err)
	}
	p, err := perfsim.Prepare(g)
	if err != nil {
		return 0, nil, err
	}
	opt := perfsim.DefaultOptions()
	if req.Options != nil {
		opt = *req.Options
	}
	batch := req.Batch
	if batch == 0 {
		batch = 1
	}
	if batch < 0 {
		return 0, nil, guard.Invalid("perfsim: batch must be positive, got %d", batch)
	}
	resp := SimulateBatchResponse{
		Workload: g.Name,
		Batch:    batch,
		Results:  make([]SimulateBatchEntry, len(req.Configs)),
	}
	// A config that does not build fails its own entry, as does a failed
	// simulation; each result is summarized out of the scratch before the
	// next candidate overwrites it. The ctx is checked between candidates.
	var res perfsim.Result
	for i, cr := range req.Configs {
		if err := guard.CtxErr(r.Context()); err != nil {
			return 0, nil, err
		}
		c, err := cr.resolve()
		if err == nil {
			err = p.SimulateInto(r.Context(), c, batch, opt, &res)
		}
		if err != nil {
			resp.Results[i] = SimulateBatchEntry{Kind: guard.Kind(err), Err: err.Error()}
			resp.Failed++
			continue
		}
		sr := newSimulateResponse(c, g.Name, &res)
		resp.Results[i].Result = &sr
	}
	return http.StatusOK, resp, nil
}

// ---- /v1/worker/eval ------------------------------------------------------

// workerEval is the worker side of the fleet protocol: evaluate one shard
// of a distributed study and return its outcomes. Candidate failures travel
// inside the 200 response as (kind, msg) outcomes; only a malformed shard
// (400) or an interrupted evaluation (the coordinator's lease expired and
// canceled the request) fails the call, in which case the coordinator
// requeues the shard elsewhere — re-evaluation is deterministic, so a
// retried shard cannot change the study's output. guard.Inject("fleet.shard")
// is the chaos hook the fleet tests and the CI chaos job use to fault
// workers without killing processes.
//
// Tracing: a request carrying a coordinator traceparent gets its own
// request-scoped tracer — independent of this process's -trace state — and
// the captured span subtree (worker.eval plus its per-candidate evals)
// rides back in the response for the coordinator to graft into the study
// trace.
func (s *Server) workerEval(r *http.Request) (int, any, error) {
	var sh dse.Shard
	if err := decodeBody(r, &sh); err != nil {
		return 0, nil, err
	}
	ctx := r.Context()
	var rt *obs.Tracer
	var root *obs.Span
	if traceID, _, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
		rt = obs.NewRequestTracer()
		rt.SetTraceID(traceID)
		ctx, root = rt.StartRoot(ctx, "worker.eval",
			obs.Int("candidates", int64(len(sh.Cands))))
	}
	if err := guard.Inject(ctx, "fleet.shard"); err != nil {
		return 0, nil, err
	}
	outs, err := dse.EvalShard(ctx, sh, s.cfg.Workers, s.cfg.Results)
	root.End() // nil-safe; must end before export so the subtree is complete
	if err != nil {
		return 0, nil, err
	}
	res := dse.ShardResult{Outcomes: outs}
	if rt != nil {
		res.Spans = rt.WireSpans()
	}
	return http.StatusOK, res, nil
}

// decodeBody reads a bounded JSON request body. Malformed JSON is an
// invalid-config failure (400), not a server error; a body past the
// MaxBytesReader bound (installed by handle) is a 413.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return fmt.Errorf("%w: request body exceeds %d bytes", ErrTooLarge, tooBig.Limit)
		}
		return guard.Invalid("request body: %v", err)
	}
	return nil
}
