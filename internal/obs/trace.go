package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// Span-based request tracing. A Trace is one request's (one job's) tree
// of timed spans: admit, WAL accept, queue wait, lottery draw, cache
// probe, simulate chunks, snapshot publish, terminal WAL write, stream
// flush. Spans carry a monotonic start and duration (time.Time's
// monotonic reading survives Sub), a parent link, and a small id
// assigned deterministically in creation order.
//
// Design constraints, mirroring the rest of this package:
//
//   - Clock-injected: a Trace reads time only through the Clock it was
//     built with, so tests drive span timing deterministically and the
//     nondeterminism lint's time.Now confinement to internal/obs holds.
//   - Bounded: a trace holds at most its maxSpans spans; past the bound
//     new spans are counted as dropped and Start returns a nil *Span.
//     Every Span and Trace method is nil-safe, so instrumented code
//     never branches on whether tracing is live.
//   - Strictly off the hot path: spans mark job-lifecycle stages and
//     chunk boundaries, never per-cycle events, so fast-forward
//     eligibility and collector fingerprints are untouched.
//
// Export comes in three shapes: WriteChrome renders the Chrome
// trace-event JSON consumed by chrome://tracing and Perfetto, Spans
// returns the flat tree for journals (the slow-job log), and TotalsUS
// folds per-stage totals into a job's JSONL stream.

// Clock supplies wall time to a Trace. The zero value (nil) means Now.
type Clock func() time.Time

// DefaultMaxSpans bounds a trace that did not choose its own bound.
const DefaultMaxSpans = 2048

// Trace is one request's bounded span tree.
type Trace struct {
	mu      sync.Mutex
	id      string
	clock   Clock
	origin  time.Time
	spans   []*Span
	max     int
	dropped int64
}

// Span is one timed stage inside a Trace. A nil *Span is a valid no-op
// (the trace was nil or full).
type Span struct {
	tr      *Trace
	id      int
	parent  int // 0 = top-level
	name    string
	track   int
	start   time.Time
	startUS int64
	durUS   int64 // -1 while open
	args    map[string]any
}

// NewTrace builds a trace whose spans are timed by clock (nil = Now)
// and bounded at maxSpans (<=0 = DefaultMaxSpans). The trace origin —
// Chrome timestamp zero — is the clock reading at construction.
func NewTrace(id string, clock Clock, maxSpans int) *Trace {
	if clock == nil {
		clock = Now
	}
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Trace{id: id, clock: clock, origin: clock(), max: maxSpans}
}

// ID returns the trace id.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// SetID renames the trace (the job server assigns ids after parsing).
func (t *Trace) SetID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.id = id
	t.mu.Unlock()
}

// Start opens a top-track span. parent may be nil (a top-level span).
func (t *Trace) Start(name string, parent *Span) *Span {
	return t.StartTrack(name, parent, 0)
}

// StartTrack opens a span on the given track (Chrome renders each track
// as one timeline row; the job server gives each replica its own).
func (t *Trace) StartTrack(name string, parent *Span, track int) *Span {
	if t == nil {
		return nil
	}
	now := t.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(name, parent, track, now, -1, nil)
}

// AddSpan records an already-completed span retroactively — used for
// stages measured where the trace is out of reach (the lottery draw
// happens inside the admitter) or derived from two clock reads. The
// returned span is usable as a parent; nil when dropped by the bound.
func (t *Trace) AddSpan(name string, parent *Span, track int, start time.Time, dur time.Duration, args map[string]any) *Span {
	if t == nil {
		return nil
	}
	if dur < 0 {
		dur = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(name, parent, track, start, dur.Microseconds(), args)
}

// addLocked appends one span under the trace lock. durUS -1 = open.
func (t *Trace) addLocked(name string, parent *Span, track int, start time.Time, durUS int64, args map[string]any) *Span {
	if len(t.spans) >= t.max {
		t.dropped++
		return nil
	}
	pid := 0
	if parent != nil {
		pid = parent.id
	}
	s := &Span{
		tr:      t,
		id:      len(t.spans) + 1,
		parent:  pid,
		name:    name,
		track:   track,
		start:   start,
		startUS: start.Sub(t.origin).Microseconds(),
		durUS:   durUS,
	}
	if len(args) > 0 {
		s.args = make(map[string]any, len(args))
		for k, v := range args {
			s.args[k] = v
		}
	}
	t.spans = append(t.spans, s)
	return s
}

// ID returns the span's deterministic id (creation order, from 1).
func (s *Span) ID() int {
	if s == nil {
		return 0
	}
	return s.id
}

// Arg attaches one key/value to the span and returns it for chaining.
func (s *Span) Arg(key string, v any) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	if s.args == nil {
		s.args = make(map[string]any, 2)
	}
	s.args[key] = v
	s.tr.mu.Unlock()
	return s
}

// End closes the span at the trace clock's current reading. A second
// End is ignored, so shared probe/cleanup paths may End defensively.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tr.clock()
	s.tr.mu.Lock()
	if s.durUS < 0 {
		d := now.Sub(s.start).Microseconds()
		if d < 0 {
			d = 0
		}
		s.durUS = d
	}
	s.tr.mu.Unlock()
}

// Dropped returns how many spans the bound rejected.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns the number of recorded spans.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Elapsed returns the time since the trace origin.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return t.clock().Sub(t.origin)
}

// SpanInfo is one span flattened for journals and tests: ids link the
// tree, timestamps are microseconds since the trace origin.
type SpanInfo struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent,omitempty"`
	Name    string         `json:"name"`
	Track   int            `json:"track,omitempty"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Args    map[string]any `json:"args,omitempty"`
}

// Spans snapshots the flat span tree in id order. Open spans report
// their duration so far.
func (t *Trace) Spans() []SpanInfo {
	if t == nil {
		return nil
	}
	now := t.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanInfo, len(t.spans))
	for i, s := range t.spans {
		out[i] = SpanInfo{
			ID:      s.id,
			Parent:  s.parent,
			Name:    s.name,
			Track:   s.track,
			StartUS: s.startUS,
			DurUS:   s.durLocked(now),
		}
		if len(s.args) > 0 {
			args := make(map[string]any, len(s.args))
			for k, v := range s.args {
				args[k] = v
			}
			out[i].Args = args
		}
	}
	return out
}

// durLocked returns the span duration, extending open spans to now.
func (s *Span) durLocked(now time.Time) int64 {
	if s.durUS >= 0 {
		return s.durUS
	}
	d := now.Sub(s.start).Microseconds()
	if d < 0 {
		d = 0
	}
	return d
}

// SpanSummary aggregates all spans sharing a name.
type SpanSummary struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalUS int64  `json:"total_us"`
	MaxUS   int64  `json:"max_us"`
}

// Summary folds the trace per span name, sorted by name — the compact
// per-stage latency decomposition.
func (t *Trace) Summary() []SpanSummary {
	if t == nil {
		return nil
	}
	now := t.clock()
	t.mu.Lock()
	agg := make(map[string]*SpanSummary)
	for _, s := range t.spans {
		d := s.durLocked(now)
		sum := agg[s.name]
		if sum == nil {
			sum = &SpanSummary{Name: s.name}
			agg[s.name] = sum
		}
		sum.Count++
		sum.TotalUS += d
		if d > sum.MaxUS {
			sum.MaxUS = d
		}
	}
	t.mu.Unlock()
	out := make([]SpanSummary, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TotalsUS returns name -> summed microseconds, the shape folded into a
// job's JSONL stream as the "spans" field of its terminal event.
func (t *Trace) TotalsUS() map[string]int64 {
	sums := t.Summary()
	if sums == nil {
		return nil
	}
	out := make(map[string]int64, len(sums))
	for _, s := range sums {
		out[s.Name] = s.TotalUS
	}
	return out
}

// chromeEvent is one Chrome trace-event ("X" = complete event with an
// explicit duration; ts and dur are microseconds).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace-event format, the
// one chrome://tracing and Perfetto both load.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChrome renders the trace in Chrome trace-event JSON. Spans map
// to complete ("X") events: ts/dur in microseconds since the trace
// origin, tid = track, and the span/parent ids joining the tree under
// args. Output is deterministic given deterministic span timings.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	infos := t.Spans()
	t.mu.Lock()
	id := t.id
	dropped := t.dropped
	t.mu.Unlock()
	ct := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(infos)),
		DisplayTimeUnit: "ms",
		OtherData:       map[string]any{"trace_id": id, "dropped_spans": dropped},
	}
	for _, si := range infos {
		args := make(map[string]any, len(si.Args)+2)
		for k, v := range si.Args {
			args[k] = v
		}
		args["span_id"] = si.ID
		if si.Parent != 0 {
			args["parent"] = si.Parent
		}
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: si.Name,
			Cat:  "job",
			Ph:   "X",
			TS:   si.StartUS,
			Dur:  si.DurUS,
			PID:  1,
			TID:  si.Track,
			Args: args,
		})
	}
	b, err := json.Marshal(ct)
	if err != nil {
		return fmt.Errorf("obs: chrome trace: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// SecondsBuckets returns log-scale bucket bounds for service-side
// latency histograms (admission, queue wait, run, WAL append): half-
// octave resolution from ~1 µs to 64 s — 53 fixed buckets, mergeable
// deterministically like LatencyBuckets.
func SecondsBuckets() []float64 {
	const lo, hi = -40, 12 // exponents in half-octaves: 2^-20 .. 2^6
	b := make([]float64, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		b = append(b, math.Pow(2, float64(i)/2))
	}
	return b
}
