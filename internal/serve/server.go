package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/workload"
)

// Config parameterizes a Server. The zero value is usable: a depth-16
// queue, one sweep at a time, engine pools sized to GOMAXPROCS, a
// memory-only cache, and the build's own version string in cache keys.
type Config struct {
	// QueueDepth bounds the number of queued (not yet running) sweeps;
	// submissions beyond it get 429 + Retry-After (default 16).
	QueueDepth int
	// Workers is how many sweeps run concurrently (default 1: a sweep
	// already parallelizes internally, so job-level concurrency mostly
	// helps many small sweeps).
	Workers int
	// SimWorkers bounds each sweep's engine pool (0 means GOMAXPROCS).
	SimWorkers int
	// CacheDir is the on-disk result store; empty keeps the cache
	// memory-only. CacheEntries bounds the in-memory tier (default 128).
	CacheDir     string
	CacheEntries int
	// Version overrides the code-version component of cache keys; empty
	// uses buildinfo.Version(). Tests pin it to decouple keys from the
	// build environment.
	Version string
	// JobTimeout bounds one sweep's running wall clock (queue wait
	// excluded). A job past it is canceled through the engines' context
	// plumbing — the pools drain, no goroutine is killed mid-replica — and
	// finishes failed with a timeout reason. Zero means no limit.
	JobTimeout time.Duration
	// JournalDir, when set, makes the server durable and multi-process:
	// jobs are journaled on disk (journal.go) before being acknowledged,
	// executed by leased workers (this process's and any number of
	// `sweepd --worker` processes sharing the directory), checkpointed
	// between ladder points, and recovered across crashes and restarts.
	// CacheDir defaults to JournalDir/cache so all processes share the
	// result store. Workers < 0 runs no in-process workers (front-end
	// only; external workers drain the queue).
	JournalDir string
	// LeaseTTL, MaxRetries and Backoff tune durable-mode recovery; see
	// WorkerConfig. Zero values take the worker defaults.
	LeaseTTL   time.Duration
	MaxRetries int
	Backoff    time.Duration
}

// Server is the sweep service. It owns the queue, the cache, the worker
// goroutines, and the HTTP surface; Close drains it.
type Server struct {
	cfg     Config
	version string
	queue   *Queue
	cache   *Cache
	mux     *http.ServeMux

	// journal is non-nil in durable mode; the handlers then treat the
	// on-disk journal, not the in-memory job table, as the source of truth.
	journal  *Journal
	wmetrics *WorkerMetrics

	mu   sync.Mutex
	jobs map[string]*Job
	// cancels maps running durable jobs to their in-process cancel funcs,
	// so a DELETE aborts mid-point instead of waiting for a boundary.
	cancels map[string]context.CancelCauseFunc

	nextID   atomic.Int64
	running  atomic.Int64
	done     atomic.Int64
	failed   atomic.Int64
	timedOut atomic.Int64
	// wallNanos/wallCount accumulate per-job wall time for /metrics.
	wallNanos atomic.Int64
	wallCount atomic.Int64

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	wg         sync.WaitGroup
}

// New builds a Server and starts its workers.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	switch {
	case cfg.Workers == 0:
		cfg.Workers = 1
	case cfg.Workers < 0:
		cfg.Workers = 0 // durable front-end only: external workers drain
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 128
	}
	version := cfg.Version
	if version == "" {
		version = buildinfo.Version()
	}
	if cfg.JournalDir != "" && cfg.CacheDir == "" {
		cfg.CacheDir = filepath.Join(cfg.JournalDir, "cache")
	}
	cache, err := NewCache(cfg.CacheDir, cfg.CacheEntries)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		version:    version,
		queue:      NewQueue(cfg.QueueDepth),
		cache:      cache,
		jobs:       make(map[string]*Job),
		cancels:    make(map[string]context.CancelCauseFunc),
		wmetrics:   new(WorkerMetrics),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if cfg.JournalDir != "" {
		jl, err := OpenJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		s.journal = jl
		s.seedNextID()
		for range cfg.Workers {
			wk := NewWorker(WorkerConfig{
				Journal:    jl,
				Cache:      cache,
				Version:    version,
				SimWorkers: cfg.SimWorkers,
				LeaseTTL:   cfg.LeaseTTL,
				MaxRetries: cfg.MaxRetries,
				Backoff:    cfg.Backoff,
				JobTimeout: cfg.JobTimeout,
				Metrics:    s.wmetrics,
				OnRun:      s.registerCancel,
				OnDone:     s.unregisterCancel,
			})
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				wk.Run(s.baseCtx)
			}()
		}
		return s, nil
	}
	for range cfg.Workers {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Close cancels every in-flight job, stops the workers, and waits for
// them. In-flight sweeps abort through the engines' context plumbing.
func (s *Server) Close() {
	s.baseCancel(ErrCanceled)
	s.queue.Close()
	s.mu.Lock()
	for _, j := range s.jobs {
		j.Cancel(ErrCanceled)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Version returns the code-version string used in this server's cache keys.
func (s *Server) Version() string { return s.version }

// SubmitRequest is the body of POST /v1/sweeps.
type SubmitRequest struct {
	// Scenario is a declarative workload.Scenario document; it is
	// validated (including the analytic stability checks) before anything
	// is queued.
	Scenario json.RawMessage `json:"scenario"`
	// Engine picks the executor: "event" (default) or "slotted".
	Engine string `json:"engine,omitempty"`
	// Priority orders the queue: higher pops first, ties are FIFO.
	Priority int `json:"priority,omitempty"`
}

// SubmitResponse is the body of POST /v1/sweeps. A cache hit carries the
// full result document immediately (Cached true, no job); a miss carries
// the new job's ID.
type SubmitResponse struct {
	ID     string          `json:"id,omitempty"`
	Key    string          `json:"key"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if len(req.Scenario) == 0 {
		httpError(w, http.StatusBadRequest, "request needs a scenario")
		return
	}
	sc, err := workload.ParseScenario(req.Scenario)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	engine := req.Engine
	if engine == "" {
		engine = EngineEvent
	}
	if engine == EngineSlotted {
		// Reject scenarios the slotted engine cannot lower (non-Poisson
		// arrivals, routers without steppers) at submit time, not after
		// queueing.
		b, err := sc.Bind()
		if err == nil {
			_, err = b.SlottedConfigs()
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	canonical := sc.Canonical()
	key, err := Key(canonical, engine, s.version)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if doc, ok := s.cache.Get(key); ok {
		writeJSON(w, http.StatusOK, SubmitResponse{
			Key:    key,
			Status: StatusDone,
			Cached: true,
			Result: doc,
		})
		return
	}
	if s.journal != nil {
		s.submitDurable(w, canonical, engine, key, req.Priority)
		return
	}
	id := fmt.Sprintf("job-%d", s.nextID.Add(1))
	j := newJob(id, key, engine, req.Priority, canonical, s.baseCtx)
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	if err := s.queue.Push(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		if err == ErrQueueFull {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err.Error())
			return
		}
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID:     id,
		Key:    key,
		Status: StatusQueued,
		Cached: false,
	})
}

func (s *Server) lookup(r *http.Request) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if s.journal != nil {
		s.getDurable(w, r)
		return
	}
	j, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no such sweep")
		return
	}
	writeJSON(w, http.StatusOK, j.doc())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if s.journal != nil {
		s.cancelDurable(w, r)
		return
	}
	j, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no such sweep")
		return
	}
	j.Cancel(ErrCanceled)
	writeJSON(w, http.StatusOK, j.doc())
}

// handleEvents is the SSE stream: every event the job has already logged
// is replayed in order, then the connection goes live until the job
// reaches a terminal state or the client disconnects. Events carry
// monotone ids (event index + 1), and a reconnecting client that sends
// Last-Event-ID resumes right after the last event it saw — so each sweep
// point is delivered exactly once per logical stream even across dropped
// connections. A `retry:` hint tells EventSource-style clients how fast
// to come back.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.journal != nil {
		s.eventsDurable(w, r)
		return
	}
	j, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no such sweep")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "retry: %d\n\n", sseRetryMillis)
	fl.Flush()
	ctx := r.Context()
	// The event wait parks on the job's condition variable; a client
	// disconnect must kick it awake to observe ctx.
	stop := context.AfterFunc(ctx, j.wake)
	defer stop()
	for i := lastEventID(r); ; i++ {
		ev, ok := j.next(ctx, i)
		if !ok {
			return
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", i+1, ev.Type, ev.Data)
		fl.Flush()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	queued := s.queue.Len()
	running := s.running.Load()
	if s.journal != nil {
		q, rn, _ := s.durableGauges()
		queued, running = q, int64(rn)
	}
	writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		Version string `json:"version"`
		Queued  int    `json:"queued"`
		Running int64  `json:"running"`
	}{"ok", s.version, queued, running})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	queued := s.queue.Len()
	running := s.running.Load()
	leases := 0
	done, failed := s.done.Load(), s.failed.Load()
	if s.journal != nil {
		q, rn, ls := s.durableGauges()
		queued, running, leases = q, int64(rn), ls
		done += s.wmetrics.Completed.Load()
		failed += s.wmetrics.Failed.Load()
	}
	fmt.Fprintf(w, "# TYPE sweepd_queue_depth gauge\nsweepd_queue_depth %d\n", queued)
	fmt.Fprintf(w, "# TYPE sweepd_running_jobs gauge\nsweepd_running_jobs %d\n", running)
	fmt.Fprintf(w, "# TYPE sweepd_active_leases gauge\nsweepd_active_leases %d\n", leases)
	fmt.Fprintf(w, "# TYPE sweepd_cache_hits_total counter\nsweepd_cache_hits_total %d\n", s.cache.Hits())
	fmt.Fprintf(w, "# TYPE sweepd_cache_misses_total counter\nsweepd_cache_misses_total %d\n", s.cache.Misses())
	fmt.Fprintf(w, "# TYPE sweepd_jobs_completed_total counter\nsweepd_jobs_completed_total %d\n", done)
	fmt.Fprintf(w, "# TYPE sweepd_jobs_failed_total counter\nsweepd_jobs_failed_total %d\n", failed)
	fmt.Fprintf(w, "# TYPE sweepd_jobs_timed_out_total counter\nsweepd_jobs_timed_out_total %d\n", s.timedOut.Load())
	fmt.Fprintf(w, "# TYPE sweepd_jobs_requeued_total counter\nsweepd_jobs_requeued_total %d\n", s.wmetrics.Requeued.Load())
	fmt.Fprintf(w, "# TYPE sweepd_worker_drains_total counter\nsweepd_worker_drains_total %d\n", s.wmetrics.Drains.Load())
	fmt.Fprintf(w, "# TYPE sweepd_leases_lost_total counter\nsweepd_leases_lost_total %d\n", s.wmetrics.LeaseLost.Load())
	fmt.Fprintf(w, "# TYPE sweepd_job_wall_seconds summary\n")
	fmt.Fprintf(w, "sweepd_job_wall_seconds_sum %g\n", float64(s.wallNanos.Load())/1e9)
	fmt.Fprintf(w, "sweepd_job_wall_seconds_count %d\n", s.wallCount.Load())
}

// worker pops jobs and runs them until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		if !j.start() {
			// Canceled while queued; already terminal.
			continue
		}
		s.running.Add(1)
		s.runJob(j)
		s.running.Add(-1)
		d := j.wallTime()
		s.wallNanos.Add(int64(d))
		s.wallCount.Add(1)
	}
}

// PointDoc is one sweep point of the final result document and of the
// SSE "point" events — the shared shape of both engines' cells.
type PointDoc struct {
	Index     int     `json:"index"`
	Load      float64 `json:"load"`
	NodeRate  float64 `json:"nodeRate"`
	MeanDelay float64 `json:"meanDelay"`
	DelayCI   float64 `json:"delayCI"`
	MeanN     float64 `json:"meanN"`
	Replicas  int     `json:"replicas"`
}

// ResultDoc is the final result document: stored verbatim in the cache
// and embedded verbatim in responses, so a cached resubmission returns
// byte-identical result bytes.
type ResultDoc struct {
	Name    string     `json:"name"`
	Engine  string     `json:"engine"`
	Version string     `json:"version"`
	Key     string     `json:"key"`
	Points  []PointDoc `json:"points"`
}

// runJob executes one sweep on the engine it names, streaming each cell
// as an SSE "point" event the moment it converges, then finishing the job
// with the cached result document (or the first error).
func (s *Server) runJob(j *Job) {
	if s.cfg.JobTimeout > 0 {
		timer := time.AfterFunc(s.cfg.JobTimeout, func() { j.Cancel(ErrJobTimeout) })
		defer timer.Stop()
	}
	b, err := j.Scenario.Bind()
	if err != nil {
		s.failed.Add(1)
		j.finish(StatusFailed, nil, err.Error())
		return
	}
	points := make([]PointDoc, len(b.Points))
	var firstErr error
	emit := func(i int, meanDelay, delayCI, meanN float64, reps int, cellErr error) {
		if cellErr != nil {
			if firstErr == nil {
				firstErr = cellErr
			}
			return
		}
		pd := PointDoc{
			Index:     i,
			Load:      b.Points[i].Load,
			NodeRate:  b.Points[i].NodeRate,
			MeanDelay: meanDelay,
			DelayCI:   delayCI,
			MeanN:     meanN,
			Replicas:  reps,
		}
		points[i] = pd
		data, _ := json.Marshal(pd)
		j.append("point", data)
	}
	opts := b.SweepOpts(s.cfg.SimWorkers)
	switch j.Engine {
	case EngineSlotted:
		cfgs, cfgErr := b.SlottedConfigs()
		if cfgErr != nil {
			firstErr = cfgErr
			break
		}
		stepsim.StreamSweepAdaptive(j.ctx, cfgs, opts, func(i int, rs stepsim.ReplicaSet, err error) {
			emit(i, rs.MeanDelay, rs.DelayCI, rs.MeanN, rs.ReplicasUsed, err)
		})
	default:
		sim.StreamSweepAdaptive(j.ctx, b.Configs, opts, func(i int, rs sim.ReplicaSet, err error) {
			emit(i, rs.MeanDelay, rs.DelayCI, rs.MeanN, rs.ReplicasUsed, err)
		})
	}
	if cause := context.Cause(j.ctx); cause != nil {
		if errors.Is(cause, ErrJobTimeout) {
			s.failed.Add(1)
			s.timedOut.Add(1)
			j.finish(StatusFailed, nil, fmt.Sprintf("timeout: sweep exceeded the %v job limit", s.cfg.JobTimeout))
			return
		}
		j.finish(StatusCanceled, nil, cause.Error())
		return
	}
	if firstErr != nil {
		s.failed.Add(1)
		j.finish(StatusFailed, nil, firstErr.Error())
		return
	}
	doc, err := json.Marshal(ResultDoc{
		Name:    j.Scenario.Name,
		Engine:  j.Engine,
		Version: s.version,
		Key:     j.Key,
		Points:  points,
	})
	if err != nil {
		s.failed.Add(1)
		j.finish(StatusFailed, nil, err.Error())
		return
	}
	// A cache write failure costs future hits, not this job: the sweep
	// itself succeeded.
	_ = s.cache.Put(j.Key, doc)
	s.done.Add(1)
	j.finish(StatusDone, doc, "")
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
