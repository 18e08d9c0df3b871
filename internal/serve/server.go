package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lotterybus/internal/cache"
	"lotterybus/internal/obs"
	"lotterybus/internal/runner"
	"lotterybus/internal/simcfg"
)

// Options configures a Server. The zero value is usable: memory-only
// cache, no WAL (no crash recovery), queue of 256, two dispatch
// workers, and a private metrics registry.
type Options struct {
	// CacheDir backs the shared result cache on disk; "" keeps results
	// in memory only (still deduplicated, not crash-durable).
	CacheDir string
	// DataDir holds the write-ahead job journal; "" disables crash
	// recovery (accepted jobs die with the process).
	DataDir string
	// QueueCap bounds the total queued jobs across all clients
	// (default 256). Beyond it, submissions shed with 429.
	QueueCap int
	// PerClientCap bounds one client's queued jobs (default QueueCap/4)
	// so a flooding tenant cannot occupy the whole queue; a backlogged
	// client then refills exactly as fast as the admission lottery
	// drains it, and completion shares track the ticket ratio.
	PerClientCap int
	// Jobs is the number of concurrent job dispatch workers (default 2).
	Jobs int
	// ReplicaWorkers sizes each job's replica pool (default: all cores).
	ReplicaWorkers int
	// Limits bounds a single request (see Limits).
	Limits Limits
	// MaxBodyBytes caps a request body (default 1 MiB).
	MaxBodyBytes int64
	// JobTimeout is the per-job wall-clock budget; 0 means no limit.
	JobTimeout time.Duration
	// Tickets assigns per-client lottery ticket holdings for admission
	// control; clients not listed hold DefaultTickets (default 1).
	Tickets        map[string]uint64
	DefaultTickets uint64
	// AdmissionSeed fixes the admission lottery's draw stream (default 1)
	// so scheduling is reproducible.
	AdmissionSeed uint64
	// Registry receives serve metrics; nil uses a private registry.
	Registry *obs.Registry
	// Journal receives lifecycle events; nil disables.
	Journal *obs.Journal
	// Health, when non-nil, gains the server's readiness checks
	// (queue saturation, WAL writability, cache-dir writability,
	// draining).
	Health *obs.Health
	// Clock supplies wall time to every piece of serve instrumentation
	// (spans, latency histograms, the Retry-After service estimate).
	// Defaults to obs.Now; tests inject deterministic clocks here.
	Clock func() time.Time
	// SlowJob is the total-latency threshold beyond which a finished
	// job's full span tree is journaled as a slow_job event; 0 disables.
	SlowJob time.Duration
	// TraceMaxSpans bounds one job's span tree (default
	// obs.DefaultMaxSpans); past it spans are counted as dropped.
	TraceMaxSpans int
}

func (o Options) withDefaults() Options {
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	if o.Jobs <= 0 {
		o.Jobs = 2
	}
	o.ReplicaWorkers = runner.Workers(o.ReplicaWorkers)
	o.Limits = o.Limits.withDefaults()
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.DefaultTickets == 0 {
		o.DefaultTickets = 1
	}
	if o.AdmissionSeed == 0 {
		o.AdmissionSeed = 1
	}
	if o.Clock == nil {
		o.Clock = obs.Now
	}
	return o
}

// serveMetrics is the server's observability surface in the obs
// registry.
type serveMetrics struct {
	reg            *obs.Registry
	retried        *obs.Counter
	canceled       *obs.Counter
	failed         *obs.Counter
	recovered      *obs.Counter
	queueDepth     *obs.Gauge
	queueHighWater *obs.Gauge
	admissionSec   *obs.Histogram
	queueWaitSec   *obs.Histogram
	runSec         *obs.Histogram
	totalSec       *obs.Histogram
	walAppendSec   *obs.Histogram
	cacheMisses    *obs.Counter
	streamFlushes  *obs.Counter
	slowJobs       *obs.Counter
	spansDropped   *obs.Counter
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	sec := obs.SecondsBuckets()
	return &serveMetrics{
		reg:            reg,
		retried:        reg.Counter("lotterybus_serve_retries_total", "transient-failure retries", nil),
		canceled:       reg.Counter("lotterybus_serve_canceled_total", "jobs canceled by clients", nil),
		failed:         reg.Counter("lotterybus_serve_failed_total", "jobs that ended failed", nil),
		recovered:      reg.Counter("lotterybus_serve_recovered_total", "jobs re-enqueued from the WAL", nil),
		queueDepth:     reg.Gauge("lotterybus_serve_queue_depth", "jobs currently queued", nil),
		queueHighWater: reg.Gauge("lotterybus_serve_queue_high_water", "queue depth high-water mark", nil),
		admissionSec:   reg.Histogram("lotterybus_serve_admission_seconds", "submit-to-202 latency (parse, enqueue, WAL accept)", nil, sec),
		queueWaitSec:   reg.Histogram("lotterybus_serve_queue_wait_seconds", "accept-to-dispatch queue wait", nil, sec),
		runSec:         reg.Histogram("lotterybus_serve_run_seconds", "dispatch-to-terminal execution time", nil, sec),
		totalSec:       reg.Histogram("lotterybus_serve_total_seconds", "submit-to-terminal total job latency", nil, sec),
		walAppendSec:   reg.Histogram("lotterybus_serve_wal_append_seconds", "WAL append+fsync latency", nil, sec),
		cacheMisses:    reg.Counter("lotterybus_serve_job_cache_misses_total", "replica results simulated fresh", nil),
		streamFlushes:  reg.Counter("lotterybus_serve_stream_flushes_total", "JSONL stream flush batches", nil),
		slowJobs:       reg.Counter("lotterybus_serve_slow_jobs_total", "jobs exceeding the -slow-job threshold", nil),
		spansDropped:   reg.Counter("lotterybus_serve_trace_spans_dropped_total", "spans lost to per-job trace bounds", nil),
	}
}

func (m *serveMetrics) admitted(client string) *obs.Counter {
	return m.reg.Counter("lotterybus_serve_admitted_total", "jobs admitted", obs.Labels{"client": client})
}

func (m *serveMetrics) shed(client string) *obs.Counter {
	return m.reg.Counter("lotterybus_serve_shed_total", "jobs shed with 429", obs.Labels{"client": client})
}

func (m *serveMetrics) completed(client string) *obs.Counter {
	return m.reg.Counter("lotterybus_serve_completed_total", "jobs completed", obs.Labels{"client": client})
}

func (m *serveMetrics) retryAfterSeconds(client string) *obs.Counter {
	return m.reg.Counter("lotterybus_serve_retry_after_seconds_total", "Retry-After seconds handed out with 429s", obs.Labels{"client": client})
}

func (m *serveMetrics) ticketShare(client string) *obs.Gauge {
	return m.reg.Gauge("lotterybus_serve_ticket_share", "client's share of admission lottery tickets", obs.Labels{"client": client})
}

func (m *serveMetrics) completedShare(client string) *obs.Gauge {
	return m.reg.Gauge("lotterybus_serve_completed_share", "client's share of completed jobs", obs.Labels{"client": client})
}

func (m *serveMetrics) cacheHits(source string) *obs.Counter {
	return m.reg.Counter("lotterybus_serve_job_cache_hits_total", "replica results replayed from the cache", obs.Labels{"source": source})
}

// maxRetainedJobs bounds how many terminal jobs stay queryable before
// the oldest are forgotten.
const maxRetainedJobs = 4096

// Server is the hardened simulation job server. Build one with New,
// start its dispatchers with Start, mount Handler on an HTTP listener,
// and stop it with Drain (graceful) or Abort (crash-stop, for tests).
type Server struct {
	opts    Options
	adm     *admitter
	wal     *wal
	cache   *cache.Cache
	journal *obs.Journal
	m       *serveMetrics
	clock   func() time.Time

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup
	draining   atomic.Bool

	mu   sync.Mutex
	jobs map[string]*Job
	done []string // terminal job IDs, oldest first, for retention
	seq  int64

	// svcEWMA tracks seconds per successful job — the Retry-After
	// estimate's service-time input. Zero means no samples yet.
	svcMu   sync.Mutex
	svcEWMA float64

	// clients accumulates per-client lifecycle counters for /v1/stats;
	// key set = every client name seen by submit or recovery.
	clientMu sync.Mutex
	clients  map[string]*clientCounters

	// execHook replaces execute in tests (stubbed job bodies for
	// scheduling-behavior tests that should not burn simulation time).
	execHook func(ctx context.Context, job *Job) error
}

// clientCounters is one client's lifecycle tally, served by /v1/stats.
// Ticket holdings and the labelled metric handles are resolved once at
// registration: the submit and completion paths touch them per request,
// and registry lookups (label formatting under the registry lock) are
// contended enough under overload to throttle the flood the admission
// lottery is supposed to be scheduling.
type clientCounters struct {
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Canceled  int64 `json:"canceled"`
	Failed    int64 `json:"failed"`

	tickets        uint64
	admitted       *obs.Counter
	shed           *obs.Counter
	retryAfterSec  *obs.Counter
	ticketShare    *obs.Gauge
	completedShare *obs.Gauge
}

// New builds a Server: opens (and compacts) the WAL, re-enqueues every
// accepted-but-unfinished job from it, and registers readiness checks.
// Dispatch workers do not run until Start.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	adm, err := newAdmitter(opts.QueueCap, opts.PerClientCap, opts.Tickets, opts.DefaultTickets, opts.AdmissionSeed)
	if err != nil {
		return nil, err
	}
	adm.clock = opts.Clock
	s := &Server{
		opts:    opts,
		adm:     adm,
		journal: opts.Journal,
		m:       newServeMetrics(opts.Registry),
		clock:   opts.Clock,
		jobs:    make(map[string]*Job),
		clients: make(map[string]*clientCounters),
	}
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())
	if opts.CacheDir != "" {
		// Create the directory up front so the writability readiness
		// check probes the real volume, not a not-yet-existing path.
		if err := os.MkdirAll(opts.CacheDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
		s.cache = cache.New(opts.CacheDir)
	} else {
		s.cache = cache.New("")
	}
	if opts.DataDir != "" {
		w, pending, maxID, err := openWAL(opts.DataDir)
		if err != nil {
			return nil, err
		}
		s.wal = w
		s.seq = maxID
		for _, rec := range pending {
			job, err := jobFromWAL(rec)
			if err != nil {
				// A WAL accept that no longer parses cannot re-run;
				// end it so it stops resurfacing.
				s.journal.Emit("recover_failed", map[string]any{"id": rec.ID, "error": err.Error()})
				_ = s.wal.appendEnd(rec.ID, StateFailed, "recovery: "+err.Error())
				continue
			}
			// A recovered job's pre-crash spans are gone with the old
			// process; its new trace starts at recovery, marked so.
			// Wired before enqueue like handleSubmit, though workers
			// only start after New returns.
			job.trace = obs.NewTrace(job.ID, s.clock, opts.TraceMaxSpans)
			job.acceptedAt = s.clock()
			job.trace.AddSpan("recovered", nil, 0, job.acceptedAt, 0, nil)
			if err := s.adm.enqueue(job, true); err != nil {
				s.journal.Emit("recover_failed", map[string]any{"id": rec.ID, "error": err.Error()})
				continue
			}
			s.mu.Lock()
			s.jobs[job.ID] = job
			s.mu.Unlock()
			s.m.recovered.Add(1)
			s.journal.Emit("job_recovered", map[string]any{"id": job.ID, "client": job.Client})
		}
	}
	if opts.Health != nil {
		opts.Health.SetReadiness("serve-queue", func() error {
			if s.adm.saturated() {
				return fmt.Errorf("job queue saturated")
			}
			return nil
		})
		opts.Health.SetReadiness("serve-wal", s.wal.writable)
		if opts.CacheDir != "" {
			opts.Health.SetReadiness("serve-cache", s.cache.Writable)
		}
		opts.Health.SetReadiness("serve-draining", func() error {
			if s.draining.Load() {
				return fmt.Errorf("draining")
			}
			return nil
		})
	}
	return s, nil
}

// jobFromWAL rebuilds a job from its accept record. The stored config
// bytes are canonical — a fixed point of the strict parser — so the
// rebuilt job is exactly the one that was accepted.
func jobFromWAL(rec walRecord) (*Job, error) {
	cfg, err := simcfg.ParseConfig(bytes.NewReader(rec.Config))
	if err != nil {
		return nil, err
	}
	canonical, err := cfg.Canonical()
	if err != nil {
		return nil, err
	}
	replicate := rec.Replicate
	if replicate < 1 {
		replicate = 1
	}
	return &Job{
		ID:        rec.ID,
		Client:    rec.Client,
		Replicate: replicate,
		Canonical: canonical,
		cfg:       cfg,
		state:     StateQueued,
		notify:    make(chan struct{}),
	}, nil
}

// Start launches the dispatch workers. Each worker loops: draw the
// admission lottery for the next job, run it, repeat — until drain.
func (s *Server) Start() {
	for i := 0; i < s.opts.Jobs; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				job, drawDur, ok := s.adm.next()
				if !ok {
					return
				}
				queued, _, _ := s.adm.depth()
				s.m.queueDepth.Set(float64(queued))
				s.runJob(job, drawDur)
			}
		}()
	}
}

// Cache exposes the server's result cache (shared with any sibling
// lotterysim runs pointed at the same directory).
func (s *Server) Cache() *cache.Cache { return s.cache }

// Handler returns the job API mux:
//
//	POST   /v1/jobs             submit  -> 202 {"id":...} | 400 | 429 | 503
//	GET    /v1/jobs/{id}        status  -> 200 JobStatus | 404
//	DELETE /v1/jobs/{id}        cancel  -> 202 JobStatus | 404
//	GET    /v1/jobs/{id}/stream JSONL event stream (replay + follow)
//	GET    /v1/jobs/{id}/trace  Chrome trace-event JSON span tree
//	GET    /v1/stats            queue/cache/job/client counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// handleTrace serves a job's span tree as Chrome trace-event JSON —
// loadable directly in chrome://tracing or Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r.PathValue("id"))
	if job == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	job.trace.WriteChrome(w)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining, not accepting jobs", http.StatusServiceUnavailable)
		return
	}
	// One clock read up front; the admit span is recorded retroactively
	// right before enqueue publishes the job. Under overload the shed
	// path runs at flood rate, so it must stay cheap: a shed request
	// pays one trace allocation and no span bookkeeping beyond the
	// single admit record.
	t0 := s.clock()
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	job, err := ParseJob(body, s.opts.Limits)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.seq++
	job.ID = fmt.Sprintf("j%d", s.seq)
	s.mu.Unlock()
	job.trace = obs.NewTrace(job.ID, s.clock, s.opts.TraceMaxSpans)
	// Record the accepted event before the job becomes reachable by a
	// dispatch worker, so stream replay always starts with it — a warm
	// job can otherwise finish before this handler gets back to it. A
	// shed job is discarded whole, so the early event leaves no trace.
	job.emit("accepted", map[string]any{"client": job.Client})
	// The admit span and queue-wait anchor must be in place before
	// enqueue publishes the job: a worker may dispatch it (and fold the
	// trace into its terminal event) before this handler runs another
	// line.
	job.acceptedAt = s.clock()
	admitSpan := job.trace.AddSpan("admit", nil, 0, t0, job.acceptedAt.Sub(t0), nil)
	// Reserve the queue slot first: shedding must happen before any
	// durable write, so a 429 leaves no trace to recover.
	if err := s.adm.enqueue(job, false); err != nil {
		switch err {
		case ErrDraining:
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default:
			retryAfter := s.retryAfter()
			c := s.bumpClient(job.Client, func(c *clientCounters) { c.Shed++ })
			c.shed.Add(1)
			c.retryAfterSec.Add(int64(retryAfter))
			s.journal.Emit("job_shed", map[string]any{"client": job.Client})
			w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfter))
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		}
		return
	}
	// Durably journal the accept before acknowledging: after the 202 the
	// job survives a crash of this process.
	walStart := s.clock()
	err = s.wal.appendAccept(job)
	walDur := s.clock().Sub(walStart)
	if err != nil {
		s.adm.remove(job)
		http.Error(w, "journal write failed: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	if s.wal != nil {
		s.m.walAppendSec.Observe(walDur.Seconds())
		job.trace.AddSpan("wal_accept", admitSpan, 0, walStart, walDur, nil)
	}
	s.mu.Lock()
	s.jobs[job.ID] = job
	s.mu.Unlock()
	c := s.bumpClient(job.Client, nil) // make the client visible to /v1/stats
	c.admitted.Add(1)
	queued, maxQueued, _ := s.adm.depth()
	s.m.queueDepth.Set(float64(queued))
	s.m.queueHighWater.Set(float64(maxQueued))
	s.m.admissionSec.Observe(s.clock().Sub(t0).Seconds())
	s.journal.Emit("job_accepted", map[string]any{"id": job.ID, "client": job.Client, "replicate": job.Replicate})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(job.Status())
}

// bumpClient applies fn to the client's counter record under lock,
// creating the record on first sight (fn may be nil to only register).
func (s *Server) bumpClient(client string, fn func(*clientCounters)) *clientCounters {
	s.clientMu.Lock()
	c := s.clients[client]
	if c == nil {
		c = &clientCounters{
			tickets:        s.adm.weightOf(client),
			admitted:       s.m.admitted(client),
			shed:           s.m.shed(client),
			retryAfterSec:  s.m.retryAfterSeconds(client),
			ticketShare:    s.m.ticketShare(client),
			completedShare: s.m.completedShare(client),
		}
		s.clients[client] = c
	}
	if fn != nil {
		fn(c)
	}
	s.clientMu.Unlock()
	return c
}

// observeService folds one successful job's execution time into the
// service-time EWMA behind the Retry-After estimate.
func (s *Server) observeService(d time.Duration) {
	sec := d.Seconds()
	if sec <= 0 {
		return
	}
	s.svcMu.Lock()
	if s.svcEWMA == 0 {
		s.svcEWMA = sec
	} else {
		s.svcEWMA = 0.75*s.svcEWMA + 0.25*sec
	}
	s.svcMu.Unlock()
}

// serviceSeconds returns the current per-job service-time estimate,
// defaulting to one second before any job has completed.
func (s *Server) serviceSeconds() float64 {
	s.svcMu.Lock()
	defer s.svcMu.Unlock()
	if s.svcEWMA <= 0 {
		return 1
	}
	return s.svcEWMA
}

// estimateRetryAfter estimates seconds until the queue has room for a
// backlog of queued jobs: backlog times the measured per-job service
// time, divided by dispatch width, clamped to [1, 60]. Monotone
// nondecreasing in the backlog.
func (s *Server) estimateRetryAfter(queued int) int {
	est := int(math.Ceil(float64(queued) * s.serviceSeconds() / float64(s.opts.Jobs)))
	if est < 1 {
		est = 1
	}
	if est > 60 {
		est = 60
	}
	return est
}

// retryAfter estimates seconds until the queue has room, from the
// current backlog.
func (s *Server) retryAfter() int {
	queued, _, _ := s.adm.depth()
	return s.estimateRetryAfter(queued)
}

func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r.PathValue("id"))
	if job == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(job.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r.PathValue("id"))
	if job == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	if s.adm.remove(job) {
		// Still queued: cancel is immediate and terminal here.
		if !job.acceptedAt.IsZero() {
			job.trace.AddSpan("queue_wait", nil, 0, job.acceptedAt, s.clock().Sub(job.acceptedAt), nil)
		}
		if job.terminate(StateCanceled, "canceled by client", "canceled", nil) {
			s.walEnd(job, StateCanceled, "canceled by client")
			s.m.canceled.Add(1)
			s.bumpClient(job.Client, func(c *clientCounters) { c.Canceled++ })
			s.finishJob(job)
		}
		queued, _, _ := s.adm.depth()
		s.m.queueDepth.Set(float64(queued))
	} else {
		// Running (or between dequeue and context wiring): flag it; the
		// run loop observes the cancellation at the next chunk boundary.
		job.requestCancel()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(job.Status())
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r.PathValue("id"))
	if job == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	from := 0
	for {
		evs, next, ch, terminal := job.follow(from)
		if len(evs) > 0 {
			flushStart := s.clock()
			for _, e := range evs {
				w.Write(e)
				w.Write([]byte("\n"))
			}
			if flusher != nil {
				flusher.Flush()
			}
			s.m.streamFlushes.Add(1)
			job.trace.AddSpan("stream_flush", nil, 0, flushStart, s.clock().Sub(flushStart),
				map[string]any{"events": len(evs)})
		}
		from = next
		if terminal {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		case <-s.rootCtx.Done():
			return
		}
	}
}

// ClientStats is one client's row in /v1/stats: lifecycle counters,
// configured lottery ticket holdings, and current queue occupancy.
type ClientStats struct {
	Completed int64  `json:"completed"`
	Shed      int64  `json:"shed"`
	Canceled  int64  `json:"canceled"`
	Failed    int64  `json:"failed"`
	Tickets   uint64 `json:"tickets"`
	Queued    int    `json:"queued"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	queued, maxQueued, capacity := s.adm.depth()
	s.mu.Lock()
	counts := map[JobState]int{}
	for _, j := range s.jobs {
		counts[j.State()]++
	}
	s.mu.Unlock()
	clients := map[string]ClientStats{}
	s.clientMu.Lock()
	for name, c := range s.clients {
		clients[name] = ClientStats{
			Completed: c.Completed,
			Shed:      c.Shed,
			Canceled:  c.Canceled,
			Failed:    c.Failed,
			Tickets:   s.adm.weightOf(name),
			Queued:    s.adm.queuedFor(name),
		}
	}
	s.clientMu.Unlock()
	var body struct {
		Queue struct {
			Depth    int `json:"depth"`
			MaxDepth int `json:"max_depth"`
			Capacity int `json:"capacity"`
		} `json:"queue"`
		Jobs    map[JobState]int       `json:"jobs"`
		Clients map[string]ClientStats `json:"clients"`
		Cache   cache.Stats            `json:"cache"`
	}
	body.Queue.Depth = queued
	body.Queue.MaxDepth = maxQueued
	body.Queue.Capacity = capacity
	body.Jobs = counts
	body.Clients = clients
	body.Cache = s.cache.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// updateShares refreshes the per-client ticket-share vs completed-share
// gauges over every client seen so far — the metric form of the
// overload test's "completed throughput tracks ticket ratio" claim.
func (s *Server) updateShares() {
	type row struct {
		done           int64
		tickets        uint64
		ticketShare    *obs.Gauge
		completedShare *obs.Gauge
	}
	s.clientMu.Lock()
	rows := make([]row, 0, len(s.clients))
	var totalDone int64
	var totalTickets uint64
	for _, c := range s.clients {
		rows = append(rows, row{c.Completed, c.tickets, c.ticketShare, c.completedShare})
		totalDone += c.Completed
		totalTickets += c.tickets
	}
	s.clientMu.Unlock()
	// Gauge sets are lock-free atomics; do them off the client lock so a
	// burst of completions never stalls the submit path behind it.
	for _, r := range rows {
		if totalTickets > 0 {
			r.ticketShare.Set(float64(r.tickets) / float64(totalTickets))
		}
		if totalDone > 0 {
			r.completedShare.Set(float64(r.done) / float64(totalDone))
		}
	}
}

// finishJob records retention and the journal beat after a job reaches
// its final (or interrupted) state.
func (s *Server) finishJob(job *Job) {
	state := job.State()
	s.journal.Emit("job_"+string(state), map[string]any{"id": job.ID, "client": job.Client})
	if !state.Terminal() {
		return // interrupted: stays queryable, re-runs on restart
	}
	s.mu.Lock()
	s.done = append(s.done, job.ID)
	for len(s.done) > maxRetainedJobs {
		delete(s.jobs, s.done[0])
		s.done = s.done[1:]
	}
	s.mu.Unlock()
}

// Drain gracefully stops the server: stop admitting (submissions get
// 503, readiness fails), let in-flight jobs finish, then flush and
// close the WAL. If ctx expires first, in-flight jobs are interrupted
// at their next chunk boundary and deliberately keep their WAL accept
// records — the next start resumes them, replaying finished replicas
// from the cache.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.journal.Emit("drain_begin", nil)
	s.adm.drain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	forced := false
	select {
	case <-done:
	case <-ctx.Done():
		forced = true
		s.rootCancel()
		<-done
	}
	err := s.wal.close()
	s.journal.Emit("drain_end", map[string]any{"forced": forced})
	s.rootCancel()
	return err
}

// Abort crash-stops the server: cancel everything in flight and close
// the WAL without writing end records, exactly as a kill -9 would leave
// it. Tests use it to exercise recovery.
func (s *Server) Abort() {
	s.draining.Store(true)
	s.rootCancel()
	s.adm.drain()
	s.wg.Wait()
	s.wal.close()
}
