package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"neurometer/internal/apicfg"
	"neurometer/internal/chip"
	"neurometer/internal/perfsim"
	"neurometer/internal/serve"
	"neurometer/internal/workloads"
)

// serveMixed drives an in-process neurometerd server on a loopback listener
// with closed-loop clients (each waits for its reply before sending the
// next request, like cmd/dse -fleet). About 80% of requests simulate a
// preset chip (cached after set-up) on a bundled model at batch 1-128; the
// rest build a chip from a fresh inline configuration, a cold build.
type serveMixed struct {
	in      inputs
	corrupt bool

	*loopback // the server and its client; its close ends the session

	streams []*requestStream
	cursor  atomic.Int64 // next index into the build-space permutation
	records [][]request  // per client, since the last verify

	presetMu sync.Mutex
	presets  map[string]*chip.Chip // reference chips, built directly
	sims     sync.Map              // simRequest -> serve.SimulateResponse, direct results
	sample   []*chip.Chip          // directly built inline chips, for the probes
}

// request is one completed client request.
type request struct {
	kind   string
	sim    simRequest
	cfg    int // build-space index
	status int
	body   []byte
	err    error
}

func setupServeMixed(ctx context.Context, in inputs, o options, t *tally) (session, error) {
	chip.ResetBuildCache()
	s := &serveMixed{in: in, corrupt: o.corrupt, presets: map[string]*chip.Chip{}}
	var err error
	s.loopback, err = startLoopback(in.workers, &http.Transport{MaxIdleConnsPerHost: 2 * in.workers})
	if err != nil {
		return nil, err
	}

	perm := rand.New(rand.NewSource(in.seed)).Perm(buildSpaceSize())
	s.records = make([][]request, in.workers)
	for c := 0; c < in.workers; c++ {
		s.streams = append(s.streams, &requestStream{
			rng:  rand.New(rand.NewSource(in.seed*1_000_003 + int64(c) + 1)),
			perm: perm,
			next: func() int { return int(s.cursor.Add(1) - 1) },
		})
	}

	// Warm-up: one simulate per preset and model (the first per preset
	// builds its cached chip) and a few cold builds under their own name
	// prefix, so connections, caches and lazy set-up are ready and no
	// measured build finds its chip cached.
	type call struct {
		path string
		body []byte
	}
	var warm []call
	for _, p := range servePresets {
		for _, m := range serveModels {
			warm = append(warm, call{"/v1/perfsim/simulate", mustJSON(simRequest{Preset: p, Workload: m, Batch: 1})})
		}
	}
	for i := 0; i < warmBuilds; i++ {
		// Fixed configurations, the same for every seed, spread evenly
		// over the build space.
		cfg := spaceConfig("warm", i*buildSpaceSize()/warmBuilds)
		warm = append(warm, call{"/v1/chip/build", mustJSON(serve.ChipRequest{Config: cfg})})
	}
	for _, w := range warm {
		status, body, err := s.post(ctx, w.path, w.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warm-up %s: status %d: %s", w.path, status, bytes.TrimSpace(body))
		}
		t.check(err)
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// warmBuilds is the number of cold builds in serve_mixed's warm-up.
const warmBuilds = 8

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // request bodies are plain structs
	}
	return raw
}

// loopback is an in-process neurometerd server on a loopback listener, and
// a client for it.
type loopback struct {
	srv    *serve.Server
	served chan error // the Serve goroutine's result
	url    string
	client *http.Client
}

// startLoopback starts a server with the given pool size. A nil transport
// is http.DefaultTransport.
func startLoopback(workers int, transport http.RoundTripper) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{
		srv:    serve.New(serve.Config{Workers: workers}),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: transport, Timeout: time.Minute},
	}
	go func() { l.served <- l.srv.Serve(ln) }()
	return l, nil
}

// close shuts the server down, waits for its Serve goroutine, and closes
// the client's idle connections.
func (l *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.served; err == nil {
		err = serr
	}
	l.client.CloseIdleConnections()
	if err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return nil
}

// post sends a JSON body and returns the status and the whole response body.
func (l *loopback) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// buildBody is the /v1/chip/build request for build-space index i.
func buildBody(i int) []byte {
	return mustJSON(serve.ChipRequest{Config: spaceConfig("cfg", i)})
}

func (s *serveMixed) measure(ctx context.Context, until time.Time, tr *tracer, t *tally) error {
	w := startWatch()
	var wg sync.WaitGroup
	for c := range s.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := s.streams[c]
			for first := true; first || time.Now().Before(until); first = false {
				r := request{}
				r.kind, r.sim, r.cfg = stream.nextRequest()
				path, body := "/v1/perfsim/simulate", []byte(nil)
				if r.kind == "build" {
					path, body = "/v1/chip/build", buildBody(r.cfg)
				} else {
					body = mustJSON(r.sim)
				}
				root := tr.begin("request", 0)
				sp := tr.begin("serve."+r.kind, root)
				t0 := time.Now()
				r.status, r.body, r.err = s.post(ctx, path, body)
				d := time.Since(t0)
				tr.finish(sp)
				tr.finish(root)
				t.op(r.kind, d)
				s.records[c] = append(s.records[c], r)
			}
		}(c)
	}
	wg.Wait()
	t.addBusy(w.stop())
	return nil
}

// verify checks every response recorded since the last verify. Every
// simulation is compared with workloads.ByName + perfsim.SimulateCtx on the
// same input; builds are compared with apicfg.Resolve + chip.Build on an
// evenly spaced sample of at most maxVerifiedBuilds per call (rebuilding
// all of them would take as long as the measurement), and every other build
// response must decode to a finite report of the requested configuration.
func (s *serveMixed) verify(ctx context.Context, t *tally) error {
	var all []request
	for c := range s.records {
		all = append(all, s.records[c]...)
		s.records[c] = nil
	}
	builds := 0
	for _, r := range all {
		if r.kind == "build" {
			builds++
		}
	}
	stride := (builds + maxVerifiedBuilds - 1) / maxVerifiedBuilds
	rebuild := make([]bool, len(all))
	for i, b := 0, 0; i < len(all); i++ {
		if all[i].kind == "build" {
			rebuild[i] = b%stride == 0
			b++
		}
	}

	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < s.in.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(all); i = int(next.Add(1) - 1) {
				r := all[i]
				err := r.err
				if err == nil && r.status != http.StatusOK {
					err = fmt.Errorf("%s: status %d: %s", r.kind, r.status, bytes.TrimSpace(r.body))
				}
				if err == nil && r.kind == "build" {
					var c *chip.Chip
					c, err = s.checkBuild(r, rebuild[i])
					if c != nil {
						mu.Lock()
						if len(s.sample) < maxProbeSample {
							s.sample = append(s.sample, c)
						}
						mu.Unlock()
					}
				} else if err == nil {
					err = s.checkSimulate(ctx, r)
				}
				if err == nil {
					t.results.Add(1)
				}
				t.check(err)
			}
		}()
	}
	wg.Wait()
	return nil
}

// maxVerifiedBuilds bounds the build responses verify rebuilds per call.
const maxVerifiedBuilds = 256

// maxProbeSample bounds the inline chips kept for the per-layer probes.
const maxProbeSample = 16

// checkBuild checks one build response and, when rebuild is set, compares
// it with a direct build, which it returns.
func (s *serveMixed) checkBuild(r request, rebuild bool) (*chip.Chip, error) {
	var got chip.JSONReport
	if err := json.Unmarshal(r.body, &got); err != nil {
		return nil, fmt.Errorf("build %d: decode: %w", r.cfg, err)
	}
	if s.corrupt {
		got.TDPW *= 1.0000001
	}
	raw := spaceConfig("cfg", r.cfg)
	if !rebuild {
		var want inlineConfig
		if err := json.Unmarshal(raw, &want); err != nil {
			return nil, err
		}
		if got.Name != want.Name || got.TechNM != want.TechNM || !(got.AreaMM2 > 0) || !(got.TDPW > 0) || !(got.PeakTOPS > 0) {
			return nil, fmt.Errorf("build %d: response is not a report of the requested configuration", r.cfg)
		}
		return nil, nil
	}
	cfg, err := apicfg.Resolve("", raw)
	if err != nil {
		return nil, fmt.Errorf("build %d: %w", r.cfg, err)
	}
	c, err := chip.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("build %d: direct build: %w", r.cfg, err)
	}
	if !bytes.Equal(mustJSON(got), mustJSON(c.JSONReport())) {
		return c, fmt.Errorf("build %d: response differs from chip.Build", r.cfg)
	}
	return c, nil
}

func (s *serveMixed) checkSimulate(ctx context.Context, r request) error {
	var got serve.SimulateResponse
	if err := json.Unmarshal(r.body, &got); err != nil {
		return fmt.Errorf("simulate %+v: decode: %w", r.sim, err)
	}
	if s.corrupt {
		got.FPS *= 1.0000001
	}
	want, err := s.directSimulate(ctx, r.sim)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("simulate %+v: response differs from perfsim.SimulateCtx", r.sim)
	}
	return nil
}

// directSimulate computes a simulate response without the server, on a
// reference chip built directly from the preset (memoized per input).
func (s *serveMixed) directSimulate(ctx context.Context, q simRequest) (serve.SimulateResponse, error) {
	if v, ok := s.sims.Load(q); ok {
		return v.(serve.SimulateResponse), nil
	}
	c, err := s.presetChip(q.Preset)
	if err != nil {
		return serve.SimulateResponse{}, err
	}
	want, err := simulateOn(ctx, c, q)
	if err != nil {
		return serve.SimulateResponse{}, err
	}
	s.sims.Store(q, want)
	return want, nil
}

// simulateOn is the library call a simulate request stands for, on chip c:
// workloads.ByName + perfsim.SimulateCtx, as the server's response.
func simulateOn(ctx context.Context, c *chip.Chip, q simRequest) (serve.SimulateResponse, error) {
	g, err := workloads.ByName(q.Workload)
	if err != nil {
		return serve.SimulateResponse{}, err
	}
	res, err := perfsim.SimulateCtx(ctx, c, g, q.Batch, perfsim.DefaultOptions())
	if err != nil {
		return serve.SimulateResponse{}, fmt.Errorf("simulate %+v: direct: %w", q, err)
	}
	e := c.Efficiency(res.AchievedTOPS*1e12, res.Activity)
	return serve.SimulateResponse{
		Chip: c.Cfg.Name, Workload: g.Name, Batch: q.Batch,
		FPS: res.FPS, LatencyMS: res.LatencySec * 1e3,
		AchievedTOPS: res.AchievedTOPS, Utilization: res.Utilization,
		PowerW: e.PowerW, TOPSPerWatt: e.TOPSPerWatt, TOPSPerTCO: e.TOPSPerTCO,
	}, nil
}

func (s *serveMixed) presetChip(name string) (*chip.Chip, error) {
	s.presetMu.Lock()
	defer s.presetMu.Unlock()
	if c, ok := s.presets[name]; ok {
		return c, nil
	}
	c, err := buildPreset(name)
	if err != nil {
		return nil, err
	}
	s.presets[name] = c
	return c, nil
}

// buildPreset builds a bundled preset directly, outside the build cache.
func buildPreset(name string) (*chip.Chip, error) {
	cfg, err := apicfg.Resolve(name, nil)
	if err != nil {
		return nil, err
	}
	c, err := chip.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("preset %s: %w", name, err)
	}
	return c, nil
}

func (s *serveMixed) probes() probeSet {
	var chips []*chip.Chip
	for _, p := range servePresets {
		if c, err := s.presetChip(p); err == nil {
			chips = append(chips, c)
		}
	}
	return probeSet{chips: append(chips, s.sample...)}
}
