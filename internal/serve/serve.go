// Package serve is the alloysimd daemon: the experiment runner promoted
// from a per-process CLI into a long-running simulation-as-a-service
// node. The shape mirrors the paper's thesis at the system level — make
// the common case (a sweep point someone already ran) cheap, and stream
// many of them: identical points coalesce through the runner's
// singleflight map, completed points are served from a content-addressed
// LRU in front of the runner's memo and checkpoint file, and thousands
// of concurrent clients share one bounded worker pool with explicit
// backpressure (429) instead of unbounded queueing.
//
// HTTP surface:
//
//	POST /v1/sweep               submit a workload×design×predictor×cacheMB grid
//	GET  /v1/jobs/{id}           job status
//	GET  /v1/jobs/{id}/events    per-point progress and results over SSE
//	DELETE /v1/jobs/{id}         cancel a job
//	GET  /v1/results/{key}       content-addressed result lookup
//	GET  /healthz                readiness (503 while draining)
//	/metrics, /metrics.json, /debug/pprof/  the obs debug mux
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alloysim/internal/core"
	"alloysim/internal/experiments"
	"alloysim/internal/obs"
)

// Backend is the simulation engine behind the daemon. *experiments.Runner
// implements it; tests substitute a fake with controllable latency.
type Backend interface {
	// Run executes (or coalesces, or memo-hits) one sweep point.
	Run(ctx context.Context, workload string, d core.Design, pk core.PredictorKind, cacheMB uint64) (core.Result, error)
	// Normalize canonicalizes a point under the backend's defaults, so
	// distinct request spellings of one simulation share a content key.
	Normalize(pt experiments.Point) experiments.Point
	// Params returns the result-defining parameters (fingerprint source).
	Params() experiments.Params
	// Metrics snapshots the backend's coalescing counters.
	Metrics() experiments.Metrics
}

// Config tunes the daemon. Zero values select the documented defaults.
type Config struct {
	// Workers bounds concurrent simulations. Default 4.
	Workers int
	// QueueDepth bounds queued-but-not-running points across all jobs.
	// A sweep that does not fit in the free queue space is refused whole
	// with 429 — partial admission would deadlock grids. Default 1024.
	QueueDepth int
	// TenantQuota bounds in-flight (queued or running) jobs per tenant,
	// keyed by the X-Tenant header ("anon" when absent). Default 8;
	// negative means unlimited.
	TenantQuota int
	// CacheEntries bounds the content-addressed result LRU. Default 4096.
	CacheEntries int
	// MaxPointsPerSweep bounds one request's grid. Default QueueDepth.
	MaxPointsPerSweep int
	// Logger, when non-nil, receives structured request-lifecycle records
	// (admission, rejection, point completion, job completion, drain),
	// each tagged with the job's request ID. The same ID rides the job
	// context into the runner (experiments.WithRequestID), so one grep
	// over the combined log reconstructs a request end to end.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.TenantQuota == 0 {
		c.TenantQuota = 8
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.MaxPointsPerSweep <= 0 {
		c.MaxPointsPerSweep = c.QueueDepth
	}
	return c
}

// Server is one daemon instance: a bounded worker pool over a Backend,
// job bookkeeping, and the HTTP surface. Create with New, serve
// s.Handler(), stop with Drain (graceful) or Close (hard).
type Server struct {
	cfg     Config  //alloyvet:owner New; immutable after construction
	backend Backend //alloyvet:owner New; immutable after construction
	// backend params fingerprint (content-address prefix)
	fp string //alloyvet:owner New; immutable after construction

	reg    *obs.Registry  //alloyvet:owner New; the registry locks itself
	mux    *http.ServeMux //alloyvet:owner New; read-only after buildMux
	rcache *resultCache   //alloyvet:owner New; the cache locks itself

	// baseCtx parents every job context: Close cancels it, Drain does
	// not (in-flight jobs must finish during a drain).
	//alloyvet:owner New; immutable after construction
	baseCtx context.Context
	cancel  context.CancelFunc //alloyvet:owner New; CancelFunc is concurrency-safe

	queue chan *task     //alloyvet:owner New; channels synchronize themselves
	wg    sync.WaitGroup // workers

	mu       sync.Mutex
	cond     *sync.Cond      // signalled when activeJobs or queued drops
	draining bool            //alloyvet:guard mu
	closed   bool            //alloyvet:guard mu
	queued   int             //alloyvet:guard mu (tasks admitted to queue but not yet picked up)
	jobs     map[string]*Job //alloyvet:guard mu
	jobSeq   uint64          //alloyvet:guard mu
	tenants  map[string]int  //alloyvet:guard mu (in-flight jobs per tenant)

	m serveMetrics //alloyvet:owner New; every field is an atomic
}

// logw emits one structured log record when a logger is configured.
func (s *Server) logw(level slog.Level, msg string, args ...any) {
	if s.cfg.Logger == nil {
		return
	}
	s.cfg.Logger.Log(s.baseCtx, level, msg, args...)
}

// serveMetrics are the daemon's own counters. They are written from many
// HTTP-handler and worker goroutines, so unlike the simulator's
// single-writer stats.Counter fields they are atomics, exposed through
// Func metrics (the registry's read-back-closure idiom).
type serveMetrics struct {
	sweeps           atomic.Uint64
	rejectedQueue    atomic.Uint64
	rejectedQuota    atomic.Uint64
	rejectedDraining atomic.Uint64
	pointsDone       atomic.Uint64
	pointsFailed     atomic.Uint64
	cacheHits        atomic.Uint64
	sseClients       atomic.Int64
}

// New builds a server over the backend and starts its worker pool. The
// registry gains the daemon's metrics plus whatever the caller already
// registered (runner counters); pass nil to create a private one.
func New(backend Backend, cfg Config, reg *obs.Registry) *Server {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// The server IS a lifecycle root: baseCtx lives exactly as long as
	// the Server and Close cancels it. There is no caller context to
	// inherit — New is called once at process start.
	//alloyvet:allow(ctxflow)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		backend: backend,
		fp:      backend.Params().Fingerprint(),
		reg:     reg,
		rcache:  newResultCache(cfg.CacheEntries),
		baseCtx: ctx,
		cancel:  cancel,
		queue:   make(chan *task, cfg.QueueDepth),
		jobs:    make(map[string]*Job),
		tenants: make(map[string]int),
	}
	s.cond = sync.NewCond(&s.mu)
	s.registerMetrics()
	s.buildMux()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Server) registerMetrics() {
	s.reg.RegisterCounterFunc("serve_sweeps_total", "sweep requests admitted", s.m.sweeps.Load)
	s.reg.RegisterCounterFunc("serve_rejected_queue_total", "sweeps refused with 429: queue full", s.m.rejectedQueue.Load)
	s.reg.RegisterCounterFunc("serve_rejected_quota_total", "sweeps refused with 429: tenant quota", s.m.rejectedQuota.Load)
	s.reg.RegisterCounterFunc("serve_rejected_draining_total", "sweeps refused with 503: draining", s.m.rejectedDraining.Load)
	s.reg.RegisterCounterFunc("serve_points_done_total", "points completed successfully", s.m.pointsDone.Load)
	s.reg.RegisterCounterFunc("serve_points_failed_total", "points whose execution failed", s.m.pointsFailed.Load)
	s.reg.RegisterCounterFunc("serve_result_cache_hits_total", "points served from the content-addressed LRU", s.m.cacheHits.Load)
	s.reg.RegisterGaugeFunc("serve_sse_clients", "connected event-stream subscribers", func() float64 {
		return float64(s.m.sseClients.Load())
	})
	s.reg.RegisterGaugeFunc("serve_queue_depth", "points admitted but not yet running", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.queued)
	})
	s.reg.RegisterGaugeFunc("serve_jobs_active", "jobs queued or running", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, t := range s.tenants {
			n += t
		}
		return float64(n)
	})
	s.reg.RegisterCounterFunc("serve_result_cache_entries", "entries resident in the result LRU", func() uint64 {
		return uint64(s.rcache.Len())
	})
}

// Registry returns the server's metrics registry (for debug servers and
// tests).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the daemon's full HTTP surface, debug mux included.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/results/", s.handleResult)
	mux.HandleFunc("/healthz", s.handleHealth)
	// The PR 4 debug endpoints, graduated into the daemon: same paths,
	// now with a shutdown story owned by the daemon's http.Server. Mounted
	// path by path — NOT the whole debug mux — because the daemon's
	// drain-aware /healthz must not be shadowed by obs's static one.
	debug := obs.DebugMux(s.reg)
	mux.Handle("/metrics", debug)
	mux.Handle("/metrics.json", debug)
	mux.Handle("/debug/pprof/", debug)
	mux.HandleFunc("/buildinfo", obs.BuildInfoHandler)
	// When the backend can surface flight recordings (the runner attaches
	// an always-on recorder to every simulation), expose the most recent
	// one: the daemon-side black box for "what was the simulator doing".
	if fs, ok := s.backend.(flightSource); ok {
		mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, _ *http.Request) {
			pt, dump, ok := fs.LastFlightDump()
			if !ok {
				httpError(w, http.StatusNotFound, "no flight recording yet (no point has run)")
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"point\":%q,\"flight\":%s}\n", pt.String(), dump) //nolint:errcheck // client gone; nothing to do
		})
	}
	s.mux = mux
}

// flightSource is the optional backend capability behind
// /debug/flightrecorder; *experiments.Runner implements it.
type flightSource interface {
	LastFlightDump() (experiments.Point, string, bool)
}

// sweepRequest is the POST /v1/sweep body: the cross product of the four
// grids is the point set. Empty predictor strings mean the design's
// paper-default pairing; an empty cache_mb list means the runner default.
type sweepRequest struct {
	Workloads  []string `json:"workloads"`
	Designs    []string `json:"designs"`
	Predictors []string `json:"predictors"`
	CacheMB    []uint64 `json:"cache_mb"`
}

// points expands the grid in deterministic (request) order.
func (sr *sweepRequest) points() []experiments.Point {
	preds := sr.Predictors
	if len(preds) == 0 {
		preds = []string{""}
	}
	mbs := sr.CacheMB
	if len(mbs) == 0 {
		mbs = []uint64{0}
	}
	var pts []experiments.Point
	for _, w := range sr.Workloads {
		for _, d := range sr.Designs {
			for _, p := range preds {
				for _, mb := range mbs {
					pts = append(pts, experiments.Point{
						Workload:  w,
						Design:    core.Design(d),
						Predictor: core.PredictorKind(p),
						CacheMB:   mb,
					})
				}
			}
		}
	}
	return pts
}

type sweepResponse struct {
	ID          string `json:"id"`
	Points      int    `json:"points"`
	Fingerprint string `json:"fingerprint"`
	EventsURL   string `json:"events_url"`
	StatusURL   string `json:"status_url"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var sr sweepRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&sr); err != nil {
		httpError(w, http.StatusBadRequest, "bad sweep body: %v", err)
		return
	}
	if len(sr.Workloads) == 0 || len(sr.Designs) == 0 {
		httpError(w, http.StatusBadRequest, "workloads and designs must be non-empty")
		return
	}
	pts := sr.points()
	for i := range pts {
		pts[i] = s.backend.Normalize(pts[i])
	}
	if len(pts) > s.cfg.MaxPointsPerSweep {
		httpError(w, http.StatusRequestEntityTooLarge, "grid expands to %d points, limit %d", len(pts), s.cfg.MaxPointsPerSweep)
		return
	}
	tenant := tenantOf(r)

	// Admission is all-or-nothing under one lock: the whole grid gets
	// queue space and a tenant slot, or the request bounces with 429 and
	// a Retry-After — explicit backpressure instead of unbounded queues.
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		s.m.rejectedDraining.Add(1)
		s.logw(slog.LevelWarn, "sweep rejected", "reason", "draining", "tenant", tenant, "points", len(pts))
		httpError(w, http.StatusServiceUnavailable, "draining: new sweeps refused")
		return
	}
	if s.cfg.TenantQuota >= 0 && s.tenants[tenant] >= s.cfg.TenantQuota {
		s.mu.Unlock()
		s.m.rejectedQuota.Add(1)
		s.logw(slog.LevelWarn, "sweep rejected", "reason", "tenant quota", "tenant", tenant, "points", len(pts))
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "tenant %q at in-flight job quota %d", tenant, s.cfg.TenantQuota)
		return
	}
	if s.queued+len(pts) > s.cfg.QueueDepth {
		free := s.cfg.QueueDepth - s.queued
		s.mu.Unlock()
		s.m.rejectedQueue.Add(1)
		s.logw(slog.LevelWarn, "sweep rejected", "reason", "queue full", "tenant", tenant, "points", len(pts), "free", free)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "queue full: %d points requested, %d slots free", len(pts), free)
		return
	}
	s.jobSeq++
	job := newJob(fmt.Sprintf("j-%06d", s.jobSeq), tenant, pts, s.baseCtx)
	s.jobs[job.ID] = job
	s.tenants[tenant]++
	s.queued += len(pts)
	// Capacity was reserved above (queued <= QueueDepth == cap), so these
	// sends cannot block even while holding the lock — and holding it
	// orders whole-grid admission against Drain/Close flipping state.
	for i := range pts {
		s.queue <- &task{job: job, idx: i} //alloyvet:allow(ctxflow,lockcheck)
	}
	s.mu.Unlock()

	s.m.sweeps.Add(1)
	s.logw(slog.LevelInfo, "sweep admitted", "req_id", job.ID, "tenant", tenant, "points", len(pts))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(sweepResponse{ //nolint:errcheck // client gone; nothing to do
		ID:          job.ID,
		Points:      len(pts),
		Fingerprint: s.fp,
		EventsURL:   "/v1/jobs/" + job.ID + "/events",
		StatusURL:   "/v1/jobs/" + job.ID,
	})
}

// task is one queued point execution.
type task struct {
	job *Job
	idx int
}

// worker drains the queue until Close. Each task runs under its job's
// context (cancelled by DELETE or Close, not by Drain), so a cancelled
// job abandons its in-flight simulations at the next engine quantum —
// and thanks to the singleflight fix, abandoning a coalesced leader
// hands the point to a surviving job instead of poisoning it.
func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.mu.Lock()
		s.queued--
		s.cond.Broadcast()
		s.mu.Unlock()
		s.runTask(t)
	}
}

func (s *Server) runTask(t *task) {
	job, pt := t.job, t.job.Points[t.idx]
	key := ResultKey(s.fp, pt)

	if res, ok := s.rcache.Get(key); ok {
		s.m.cacheHits.Add(1)
		s.m.pointsDone.Add(1)
		s.logw(slog.LevelDebug, "point served from result cache", "req_id", job.ID, "point", pt.String(), "key", key)
		s.finishPoint(job, t.idx, key, &res, true, nil)
		return
	}
	res, err := s.backend.Run(job.ctx, pt.Workload, pt.Design, pt.Predictor, pt.CacheMB)
	if err != nil {
		s.m.pointsFailed.Add(1)
		s.logw(slog.LevelError, "point failed", "req_id", job.ID, "point", pt.String(), "key", key, "err", err.Error())
		s.finishPoint(job, t.idx, key, nil, false, err)
		return
	}
	s.rcache.Put(key, pt, res, job.ID)
	s.m.pointsDone.Add(1)
	s.logw(slog.LevelInfo, "point computed", "req_id", job.ID, "point", pt.String(), "key", key)
	s.finishPoint(job, t.idx, key, &res, false, nil)
}

// finishPoint records the event and, on the job's last point, retires the
// job and releases its tenant slot.
func (s *Server) finishPoint(job *Job, idx int, key string, res *core.Result, cached bool, err error) {
	last := job.completePoint(idx, key, res, cached, err)
	if !last {
		return
	}
	s.logw(slog.LevelInfo, "job done", "req_id", job.ID, "tenant", job.Tenant, "points", len(job.Points))
	s.mu.Lock()
	if s.tenants[job.Tenant]--; s.tenants[job.Tenant] == 0 {
		delete(s.tenants, job.Tenant)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, tail, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	job := s.jobs[id]
	s.mu.Unlock()
	if job == nil {
		httpError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	switch {
	case tail == "" && r.Method == http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(job.status()) //nolint:errcheck // client gone; nothing to do
	case tail == "" && r.Method == http.MethodDelete:
		job.Cancel()
		s.logw(slog.LevelWarn, "job cancelled by client", "req_id", job.ID, "tenant", job.Tenant)
		w.WriteHeader(http.StatusNoContent)
	case tail == "events" && r.Method == http.MethodGet:
		s.serveEvents(w, r, job)
	default:
		httpError(w, http.StatusNotFound, "no such job endpoint")
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/v1/results/")
	pt, res, origin, ok := s.rcache.Lookup(key)
	if !ok {
		httpError(w, http.StatusNotFound, "result %q not resident (evicted or never computed)", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct { //nolint:errcheck // client gone; nothing to do
		Key    string            `json:"key"`
		Origin string            `json:"origin_req_id,omitempty"`
		Point  experiments.Point `json:"point"`
		Result core.Result       `json:"result"`
	}{key, origin, pt, res})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining || s.closed
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok") //nolint:errcheck // client gone; nothing to do
}

// Drain refuses new sweeps and waits until every admitted job has
// finished, bounded by ctx. In-flight simulations are NOT cancelled —
// that is the point of a graceful drain; a ctx expiry returns the error
// and the caller decides whether to Close hard.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.logw(slog.LevelInfo, "draining: refusing new sweeps, waiting for in-flight jobs")

	// Wake the cond waiter when ctx dies.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.tenants) > 0 && ctx.Err() == nil {
		// The AfterFunc above broadcasts on ctx expiry, so this wait IS
		// interruptible by ctx — just through the cond, not a select.
		s.cond.Wait() //alloyvet:allow(ctxflow)
	}
	if err := ctx.Err(); err != nil {
		n := 0
		for _, t := range s.tenants {
			n += t
		}
		return fmt.Errorf("serve: drain expired with %d job(s) still in flight: %w", n, err)
	}
	return nil
}

// Close hard-stops the server: every job context is cancelled (in-flight
// simulations abort at the next engine quantum) and the worker pool is
// joined. Safe after Drain, and idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.draining = true
	s.mu.Unlock()

	s.cancel()     // abort in-flight runs
	close(s.queue) // workers drain remaining tasks (each aborts fast) and exit
	s.wg.Wait()
}

// tenantOf keys quotas by the X-Tenant header; absent means "anon".
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "anon"
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct { //nolint:errcheck // client gone; nothing to do
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// NewHTTPServer wraps the handler in an http.Server with the daemon's
// timeout policy. Write timeout is deliberately absent: SSE streams and
// pprof captures are long-lived by design; the drain path bounds their
// lifetime instead.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
