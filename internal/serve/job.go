// Package serve is the simulation job server: a persistent HTTP/JSON
// front end that accepts simulation jobs (canonical SimConfig + seed +
// replicate count), runs each replica against the shared
// content-addressed result cache, and streams progress and results as
// JSONL.
//
// The package is built to survive overload and crashes rather than
// merely run:
//
//   - Admission control is a lottery: the dispatcher draws the next job
//     over the clients that have queued work, weighted by per-client
//     ticket holdings, using the paper's own dynamic lottery manager
//     (internal/core). Under overload every client keeps receiving its
//     ticket share of throughput instead of the FIFO head starving the
//     tail — the LOTTERYBUS architecture applied to its own API.
//   - The queue is bounded; a full queue sheds with 429 + Retry-After
//     instead of growing without limit.
//   - Every accepted job is journaled to a write-ahead log before the
//     202 is sent; on restart, accepted-but-unfinished jobs re-enqueue
//     and complete — as pure cache replay wherever replicas already
//     finished before the crash.
//   - Jobs run under a context: client cancellation and per-job
//     wall-clock timeouts stop the simulation at the next RunChunk
//     boundary (zero per-cycle cost), and graceful drain stops
//     admitting, finishes in-flight jobs, and leaves queued ones in
//     the WAL as the restart checkpoint.
//   - Transient failures (disk I/O under the cache or WAL) retry with
//     backoff instead of surfacing as a 500; the content-addressed
//     cache already evicts and resimulates corrupt entries.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"lotterybus/internal/obs"
	"lotterybus/internal/simcfg"
)

// JobRequest is the wire schema of POST /v1/jobs.
type JobRequest struct {
	// Client identifies the submitting tenant for admission control;
	// its lottery ticket weight is server-side configuration, never
	// client-supplied. Empty means "anonymous".
	Client string `json:"client,omitempty"`
	// Replicate asks for N seed-replicas (seed, seed+1, ...); 0 means 1.
	Replicate int `json:"replicate,omitempty"`
	// Config is the simulation configuration, in exactly the schema
	// lotterysim reads (internal/simcfg).
	Config json.RawMessage `json:"config"`
}

// JobState is a job's lifecycle position.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ReplicaResult is one finished replica in a job's result set.
type ReplicaResult struct {
	Replica     int     `json:"replica"`
	Seed        uint64  `json:"seed"`
	Cycles      int64   `json:"cycles"`
	Utilization float64 `json:"utilization"`
	// Fingerprint is the collector's FNV-1a fingerprint (%016x): two
	// byte-identical runs — live, replayed from cache, or re-run after
	// a crash — print the same value.
	Fingerprint string `json:"fingerprint"`
	// Source says where the result came from: computed, memory or disk.
	Source string `json:"source"`
	// Report is the rendered per-master statistics table.
	Report string `json:"report"`
}

// JobStatus is the wire schema of GET /v1/jobs/{id}.
type JobStatus struct {
	ID        string          `json:"id"`
	Client    string          `json:"client"`
	State     JobState        `json:"state"`
	Reason    string          `json:"reason,omitempty"`
	Replicate int             `json:"replicate"`
	Attempts  int             `json:"attempts,omitempty"`
	Replicas  []ReplicaResult `json:"replicas,omitempty"`
}

// Job is one accepted simulation job.
type Job struct {
	ID        string
	Client    string
	Replicate int
	// Canonical is the canonical effective-configuration bytes (base
	// seed embedded) — the WAL record, the journal provenance, and the
	// prefix of every replica's cache key.
	Canonical []byte

	cfg *simcfg.SimConfig

	// trace is the job's span tree (admit → queue → run → replicas),
	// written only by the serving layer — never by the simulation.
	// Both fields are assigned before enqueue makes the job reachable
	// by workers and never after: the one dispatch worker that dequeues
	// the job reads them without further synchronization.
	trace      *obs.Trace
	acceptedAt time.Time

	mu       sync.Mutex
	state    JobState
	reason   string
	attempts int
	replicas []ReplicaResult
	events   []json.RawMessage
	notify   chan struct{}
	cancel   func() // non-nil while running; client cancellation hook
	byClient bool   // cancel came from the API, not drain/crash
}

// Trace returns the job's span tree (nil-safe to use when absent).
func (j *Job) Trace() *obs.Trace { return j.trace }

// Limits bounds what a single request may ask for.
type Limits struct {
	// MaxReplicate caps the replicas of one job (default 64).
	MaxReplicate int
	// MaxCycles caps one replica's simulated cycles (default 1e9).
	MaxCycles int64
}

func (l Limits) withDefaults() Limits {
	if l.MaxReplicate <= 0 {
		l.MaxReplicate = 64
	}
	if l.MaxCycles <= 0 {
		l.MaxCycles = 1_000_000_000
	}
	return l
}

// ParseJob decodes and validates one job request. Everything a request
// can get wrong is caught here, before admission: unknown fields,
// invalid configurations, and replicate/cycle limits. The returned job has no ID yet — the server
// assigns one at admission.
func ParseJob(r io.Reader, limits Limits) (*Job, error) {
	limits = limits.withDefaults()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("parsing job request: %w", err)
	}
	client := req.Client
	if client == "" {
		client = "anonymous"
	}
	if len(client) > 64 {
		return nil, fmt.Errorf("job: client name longer than 64 bytes")
	}
	for _, c := range client {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.') {
			return nil, fmt.Errorf("job: client name %q: only [A-Za-z0-9._-] allowed", client)
		}
	}
	replicate := req.Replicate
	if replicate == 0 {
		replicate = 1
	}
	if replicate < 1 || replicate > limits.MaxReplicate {
		return nil, fmt.Errorf("job: replicate %d outside [1,%d]", req.Replicate, limits.MaxReplicate)
	}
	if len(req.Config) == 0 {
		return nil, fmt.Errorf("job: missing config")
	}
	cfg, err := simcfg.ParseConfig(bytes.NewReader(req.Config))
	if err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	if cfg.Cycles > limits.MaxCycles {
		return nil, fmt.Errorf("job: cycles %d exceeds server limit %d", cfg.Cycles, limits.MaxCycles)
	}
	if err := cfg.CheckReplicas(replicate); err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	canonical, err := cfg.Canonical()
	if err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	return &Job{
		Client:    client,
		Replicate: replicate,
		Canonical: canonical,
		cfg:       cfg,
		state:     StateQueued,
		notify:    make(chan struct{}),
	}, nil
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:        j.ID,
		Client:    j.Client,
		State:     j.state,
		Reason:    j.reason,
		Replicate: j.Replicate,
		Attempts:  j.attempts,
		Replicas:  append([]ReplicaResult(nil), j.replicas...),
	}
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// emit appends one stream event (a JSON object with an "event" field)
// and wakes every follower. Terminal states are set by the caller
// before emitting the final event.
func (j *Job) emit(event string, fields map[string]any) {
	rec := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		rec[k] = v
	}
	rec["event"] = event
	rec["id"] = j.ID
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	j.mu.Lock()
	j.events = append(j.events, b)
	ch := j.notify
	j.notify = make(chan struct{})
	j.mu.Unlock()
	close(ch)
}

// follow returns the events from index from onward, the next index, a
// channel that closes when more arrive, and whether the job is
// terminal.
func (j *Job) follow(from int) ([]json.RawMessage, int, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	evs := append([]json.RawMessage(nil), j.events[from:]...)
	return evs, len(j.events), j.notify, j.state.Terminal()
}

// setState transitions the job; it returns false when the job is
// already terminal (terminal states never regress).
func (j *Job) setState(s JobState, reason string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = s
	j.reason = reason
	return true
}

// terminate moves the job to a terminal state and appends the final
// stream event under one lock, so a follower never observes a terminal
// state with the final event still missing (which would end its stream
// one event short). Returns false if the job was already terminal.
func (j *Job) terminate(s JobState, reason, event string, fields map[string]any) bool {
	rec := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		rec[k] = v
	}
	rec["event"] = event
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = s
	j.reason = reason
	rec["id"] = j.ID
	if b, err := json.Marshal(rec); err == nil {
		j.events = append(j.events, b)
	}
	ch := j.notify
	j.notify = make(chan struct{})
	close(ch)
	return true
}

// requestCancel marks the job client-canceled and fires its running
// context if one is active. It reports whether the job was still
// cancelable (not already terminal).
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.byClient = true
	if j.cancel != nil {
		j.cancel()
	}
	return true
}
