package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"syscall"
	"time"

	"lotterybus/internal/cache"
	"lotterybus/internal/obs"
	"lotterybus/internal/simcfg"
	"lotterybus/internal/stats"
)

// errClass sorts job-execution failures into retry policy.
type errClass int

const (
	classOK errClass = iota
	classCanceled
	classTimeout
	classTransient
	classPermanent
)

// classify maps an execution error to its class. Disk I/O failures
// (cache directory, WAL volume) are transient — the cache already
// evicts and resimulates corrupt entries, and a retry after backoff
// rides out a full or flaky volume — while configuration and engine
// errors are permanent: deterministic inputs produce the same failure
// every time, so retrying would only burn the queue.
func classify(err error) errClass {
	switch {
	case err == nil:
		return classOK
	case errors.Is(err, context.Canceled):
		return classCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return classTimeout
	}
	var pathErr *fs.PathError
	var errno syscall.Errno
	if errors.As(err, &pathErr) || errors.As(err, &errno) {
		return classTransient
	}
	return classPermanent
}

// retryBaseBackoff is the first retry delay; attempt k waits
// retryBaseBackoff << (k-1).
const retryBaseBackoff = 100 * time.Millisecond

// maxAttempts bounds transient-failure retries per job.
const maxAttempts = 3

// runJob drives one dequeued job to a terminal state: execute with
// retry-with-backoff on transient failures, classify the outcome, write
// the WAL end record (or deliberately not, for interrupted jobs), and
// emit the final stream event. drawDur is how long the admission
// lottery's winning draw took, recorded as the "lottery_draw" span.
func (s *Server) runJob(job *Job, drawDur time.Duration) {
	dispatched := s.clock()
	if !job.acceptedAt.IsZero() {
		wait := dispatched.Sub(job.acceptedAt)
		job.trace.AddSpan("queue_wait", nil, 0, job.acceptedAt, wait, nil)
		s.m.queueWaitSec.Observe(wait.Seconds())
	}
	job.trace.AddSpan("lottery_draw", nil, 0, dispatched.Add(-drawDur), drawDur, nil)

	ctx, cancel := context.WithCancel(s.rootCtx)
	if s.opts.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(s.rootCtx, s.opts.JobTimeout)
	}
	defer cancel()

	job.mu.Lock()
	job.state = StateRunning
	job.cancel = cancel
	alreadyCanceled := job.byClient
	job.mu.Unlock()
	if alreadyCanceled {
		cancel() // cancel arrived between dequeue and here
	}
	job.emit("started", map[string]any{"client": job.Client, "replicate": job.Replicate})

	runSpan := job.trace.Start("run", nil)
	var err error
	for attempt := 1; ; attempt++ {
		job.mu.Lock()
		job.attempts = attempt
		job.mu.Unlock()
		attemptSpan := job.trace.Start("attempt", runSpan).Arg("n", attempt)
		err = s.execute(ctx, job)
		attemptSpan.End()
		if classify(err) != classTransient || attempt >= maxAttempts {
			break
		}
		s.m.retried.Add(1)
		job.emit("retrying", map[string]any{"attempt": attempt, "error": err.Error()})
		select {
		case <-time.After(retryBaseBackoff << uint(attempt-1)):
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			err = ctx.Err()
			break
		}
	}
	runSpan.End()
	runDur := s.clock().Sub(dispatched)
	s.m.runSec.Observe(runDur.Seconds())

	// The terminal stream event carries the per-stage latency totals, so
	// a streaming client gets the decomposition without a second request.
	spanTotals := job.trace.TotalsUS()
	withSpans := func(fields map[string]any) map[string]any {
		if spanTotals == nil {
			return fields
		}
		if fields == nil {
			fields = map[string]any{}
		}
		fields["spans_us"] = spanTotals
		return fields
	}

	switch classify(err) {
	case classOK:
		if job.terminate(StateDone, "", "done", withSpans(map[string]any{"replicas": job.Replicate})) {
			s.walEnd(job, StateDone, "")
			s.m.completed(job.Client).Add(1)
			s.bumpClient(job.Client, func(c *clientCounters) { c.Completed++ })
			s.observeService(runDur)
			s.updateShares()
		}
	case classCanceled:
		job.mu.Lock()
		byClient := job.byClient
		job.mu.Unlock()
		if byClient {
			if job.terminate(StateCanceled, "canceled by client", "canceled", withSpans(nil)) {
				s.walEnd(job, StateCanceled, "canceled by client")
				s.m.canceled.Add(1)
				s.bumpClient(job.Client, func(c *clientCounters) { c.Canceled++ })
			}
		} else {
			// Interrupted by drain timeout or abort: no WAL end record —
			// the accept record is the checkpoint that re-enqueues the
			// job on the next start, where finished replicas replay from
			// the cache.
			job.setState(StateQueued, "interrupted; re-runs on restart")
			job.emit("interrupted", nil)
		}
	case classTimeout:
		reason := fmt.Sprintf("wall-clock timeout after %s", s.opts.JobTimeout)
		if job.terminate(StateFailed, reason, "failed", withSpans(map[string]any{"reason": reason})) {
			// A deterministic job that timed out once would time out on
			// every restart; end it so recovery does not loop.
			s.walEnd(job, StateFailed, reason)
			s.m.failed.Add(1)
			s.bumpClient(job.Client, func(c *clientCounters) { c.Failed++ })
		}
	default:
		if job.terminate(StateFailed, err.Error(), "failed", withSpans(map[string]any{"reason": err.Error()})) {
			s.walEnd(job, StateFailed, err.Error())
			s.m.failed.Add(1)
			s.bumpClient(job.Client, func(c *clientCounters) { c.Failed++ })
		}
	}
	s.finishJob(job)
	if job.State().Terminal() {
		total := job.trace.Elapsed()
		s.m.totalSec.Observe(total.Seconds())
		s.m.spansDropped.Add(job.trace.Dropped())
		if s.opts.SlowJob > 0 && total >= s.opts.SlowJob {
			s.m.slowJobs.Add(1)
			s.journal.Emit("slow_job", map[string]any{
				"id": job.ID, "client": job.Client, "state": string(job.State()),
				"total_ms": float64(total.Microseconds()) / 1e3,
				"spans":    job.trace.Spans(),
			})
		}
	}
}

// walEnd appends a terminal record, tolerating WAL write failure (the
// worst case is a finished job re-running into pure cache hits on the
// next start — never a lost result, never a 500).
func (s *Server) walEnd(job *Job, status JobState, reason string) {
	start := s.clock()
	err := s.wal.appendEnd(job.ID, status, reason)
	if s.wal != nil {
		dur := s.clock().Sub(start)
		s.m.walAppendSec.Observe(dur.Seconds())
		job.trace.AddSpan("wal_end", nil, 0, start, dur, nil)
	}
	if err != nil {
		s.journal.Emit("wal_error", map[string]any{"id": job.ID, "error": err.Error()})
	}
}

// execute resolves every replica of the job through the result cache
// and fills job.replicas in replica order. Hits decode the stored
// snapshot; misses simulate under ctx (stopping at the next chunk
// boundary on cancellation), each inside its key's cache flight, and
// publish their snapshot as soon as the simulation ends: a crash loses
// only the replicas still running, and a concurrent job that misses the
// same replica waits for this simulation rather than repeat it.
//
// Each replica traces on its own track (i+1): a cache_probe span and,
// on a miss, a simulate span with one chunk child per RunChunk slice
// followed by a snapshot_publish span. All span work happens at chunk
// boundaries or around the run, never inside it, so fast-forward
// eligibility and collector fingerprints are untouched.
func (s *Server) execute(ctx context.Context, job *Job) error {
	if s.execHook != nil {
		return s.execHook(ctx, job)
	}
	n := job.Replicate
	reps, err := job.cfg.BuildReplicas(n)
	if err != nil {
		return err
	}
	results := make([]ReplicaResult, n)
	tracks := make([]*obs.Span, n)
	keys := make([]cache.Key, n)
	defer func() {
		for _, t := range tracks {
			t.End() // idempotent: closes the tracks an error left open
		}
	}()
	var miss []int
	for i := range n {
		tracks[i] = job.trace.StartTrack(fmt.Sprintf("replica %d", i), nil, i+1)
		if keys[i], err = reps.Key(i); err != nil {
			return err
		}
		probe := job.trace.StartTrack("cache_probe", tracks[i], i+1)
		col, src, ok := s.cache.Get(keys[i])
		probe.Arg("hit", ok).End()
		if !ok {
			miss = append(miss, i)
			continue
		}
		s.m.cacheHits(src.String()).Add(1)
		results[i] = s.replicaDone(job, reps, i, col, src)
		tracks[i].End()
	}
	err = reps.Simulate(ctx, miss, s.opts.ReplicaWorkers, func(sim *simcfg.Sim) error {
		i := sim.Replica
		var pubStart time.Time
		col, src, err := s.cache.Share(keys[i], func() (*stats.Collector, error) {
			span := job.trace.StartTrack("simulate", tracks[i], i+1)
			chunkStart := s.clock()
			err := sim.Run(func(done, total int64) {
				now := s.clock()
				job.trace.AddSpan("chunk", span, i+1, chunkStart, now.Sub(chunkStart),
					map[string]any{"cycles_done": done, "cycles_total": total})
				chunkStart = now
			})
			span.End()
			if err != nil {
				return nil, err
			}
			pubStart = s.clock()
			return sim.System.Collector(), nil
		})
		if err != nil {
			return err
		}
		if src == cache.SourceComputed {
			job.trace.AddSpan("snapshot_publish", tracks[i], i+1, pubStart, s.clock().Sub(pubStart), nil)
			s.m.cacheMisses.Add(1)
		} else {
			s.m.cacheHits(src.String()).Add(1)
		}
		results[i] = s.replicaDone(job, reps, i, col, src)
		tracks[i].End()
		return nil
	})
	if err != nil {
		return err
	}
	job.mu.Lock()
	job.replicas = results
	job.mu.Unlock()
	return nil
}

// replicaDone renders replica i's result from its collector and streams
// the replica_done event.
func (s *Server) replicaDone(job *Job, reps *simcfg.Replicas, i int, col *stats.Collector, src cache.Source) ReplicaResult {
	rep := reps.Report(col)
	res := ReplicaResult{
		Replica:     i,
		Seed:        job.cfg.Seed + uint64(i),
		Cycles:      rep.Cycles,
		Utilization: rep.Utilization,
		Fingerprint: fmt.Sprintf("%016x", col.Fingerprint()),
		Source:      src.String(),
		Report:      rep.String(),
	}
	job.emit("replica_done", map[string]any{
		"replica": i, "seed": res.Seed,
		"fingerprint": res.Fingerprint, "source": res.Source,
	})
	return res
}
