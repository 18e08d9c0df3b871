package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"lotterybus/internal/obs"
)

// statsBody is the /v1/stats wire shape the tests inspect.
type statsBody struct {
	Queue struct {
		Depth    int `json:"depth"`
		MaxDepth int `json:"max_depth"`
		Capacity int `json:"capacity"`
	} `json:"queue"`
	Jobs    map[JobState]int       `json:"jobs"`
	Clients map[string]ClientStats `json:"clients"`
}

func getStats(t *testing.T, url string) statsBody {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body statsBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// waitRunning polls until the job reports running.
func waitRunning(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := obs.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State == StateRunning {
			return
		}
		if obs.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStatsReconcileWithTerminalStates drives one client through every
// lifecycle outcome and checks /v1/stats' per-client counters reconcile
// with the jobs' terminal states: alice completes 2 and sheds 1, bob
// cancels while queued, carol fails.
func TestStatsReconcileWithTerminalStates(t *testing.T) {
	s, ts := newTestServer(t, Options{QueueCap: 8, PerClientCap: 1, Jobs: 1,
		Tickets: map[string]uint64{"alice": 3}})
	gate := make(chan struct{})
	s.execHook = func(ctx context.Context, job *Job) error {
		if job.Client == "carol" {
			return errors.New("boom")
		}
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	a1 := submit(t, ts, submitBody("alice", 1))
	waitRunning(t, ts, a1.ID) // a1 dispatched, blocked on the gate
	a2 := submit(t, ts, submitBody("alice", 1))
	// alice's FIFO is full (PerClientCap 1): the third submission sheds.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(submitBody("alice", 1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third alice submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	b1 := submit(t, ts, submitBody("bob", 1))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+b1.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	c1 := submit(t, ts, submitBody("carol", 1))

	close(gate)
	for _, id := range []string{a1.ID, a2.ID, b1.ID, c1.ID} {
		waitTerminal(t, ts, id, 10*time.Second)
	}

	stats := getStats(t, ts.URL)
	want := map[string]ClientStats{
		"alice": {Completed: 2, Shed: 1, Tickets: 3},
		"bob":   {Canceled: 1, Tickets: 1},
		"carol": {Failed: 1, Tickets: 1},
	}
	for name, w := range want {
		got, ok := stats.Clients[name]
		if !ok {
			t.Fatalf("/v1/stats has no row for %s: %v", name, stats.Clients)
		}
		if got != w {
			t.Fatalf("%s stats = %+v, want %+v", name, got, w)
		}
	}

	// Reconcile against the jobs' own terminal states.
	terminal := map[JobState]int64{}
	for _, id := range []string{a1.ID, a2.ID, b1.ID, c1.ID} {
		st := waitTerminal(t, ts, id, time.Second)
		terminal[st.State]++
	}
	var done, canceled, failed int64
	for _, c := range stats.Clients {
		done += c.Completed
		canceled += c.Canceled
		failed += c.Failed
	}
	if done != terminal[StateDone] || canceled != terminal[StateCanceled] || failed != terminal[StateFailed] {
		t.Fatalf("client counters (done %d, canceled %d, failed %d) do not reconcile with terminal states %v",
			done, canceled, failed, terminal)
	}
}

// readyStatus hits /readyz on a health-only obs handler.
func readyStatus(t *testing.T, hs *httptest.Server) int {
	t.Helper()
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestQueueSaturationReadiness: ready ⇔ backlog < cap.
func TestQueueSaturationReadiness(t *testing.T) {
	health := obs.NewHealth()
	s, ts := newTestServer(t, Options{QueueCap: 2, PerClientCap: 2, Jobs: 1, Health: health})
	gate := make(chan struct{})
	s.execHook = func(ctx context.Context, job *Job) error {
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	hs := httptest.NewServer(obs.NewHandler(obs.ServeConfig{Health: health}))
	defer hs.Close()

	if got := readyStatus(t, hs); got != http.StatusOK {
		t.Fatalf("idle server readiness = %d, want 200", got)
	}
	j1 := submit(t, ts, submitBody("a", 1))
	waitRunning(t, ts, j1.ID)
	submit(t, ts, submitBody("b", 1))
	j3 := submit(t, ts, submitBody("c", 1)) // backlog now == cap
	if got := readyStatus(t, hs); got != http.StatusServiceUnavailable {
		t.Fatalf("saturated readiness = %d, want 503", got)
	}
	close(gate)
	waitTerminal(t, ts, j3.ID, 10*time.Second)
	if got := readyStatus(t, hs); got != http.StatusOK {
		t.Fatalf("drained readiness = %d, want 200", got)
	}
}

// TestCacheDirReadiness: the serve-cache check probes the cache volume
// with a real write, so losing the directory flips /readyz.
func TestCacheDirReadiness(t *testing.T) {
	health := obs.NewHealth()
	dir := t.TempDir() + "/cache"
	newTestServer(t, Options{CacheDir: dir, Jobs: 1, Health: health})
	hs := httptest.NewServer(obs.NewHandler(obs.ServeConfig{Health: health}))
	defer hs.Close()

	if got := readyStatus(t, hs); got != http.StatusOK {
		t.Fatalf("readiness with cache dir present = %d, want 200", got)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if got := readyStatus(t, hs); got != http.StatusServiceUnavailable {
		t.Fatalf("readiness with cache dir removed = %d, want 503", got)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if got := readyStatus(t, hs); got != http.StatusOK {
		t.Fatalf("readiness with cache dir restored = %d, want 200", got)
	}
}

// TestRetryAfterMonotone: the estimate never decreases as the backlog
// grows, and always lands in [1, 60].
func TestRetryAfterMonotone(t *testing.T) {
	s, err := New(Options{QueueCap: 256, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	prev := 0
	for q := 0; q <= 200; q++ {
		est := s.estimateRetryAfter(q)
		if est < prev {
			t.Fatalf("estimate decreased: %d jobs -> %ds, %d jobs -> %ds", q-1, prev, q, est)
		}
		if est < 1 || est > 60 {
			t.Fatalf("estimate for %d jobs = %ds outside [1,60]", q, est)
		}
		prev = est
	}
	// After observing fast service, deep backlogs estimate lower than
	// the 1s/job default — the estimate is live, not a constant.
	s.observeService(100 * time.Millisecond)
	if est := s.estimateRetryAfter(120); est >= 60 {
		t.Fatalf("estimate with 100ms service time for 120 jobs = %ds, want well under 60", est)
	}
}

// TestRetryAfterTracksDrainTime: in a controlled 1-worker run with a
// known per-job cost, the Retry-After estimate lands within 2× of the
// measured drain time.
func TestRetryAfterTracksDrainTime(t *testing.T) {
	s, ts := newTestServer(t, Options{QueueCap: 64, PerClientCap: 64, Jobs: 1})
	const perJob = 100 * time.Millisecond
	s.execHook = func(ctx context.Context, job *Job) error {
		select {
		case <-time.After(perJob):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	// Warm the EWMA with sequential jobs of known cost.
	for i := 0; i < 3; i++ {
		st := submit(t, ts, submitBody("w", 1))
		waitTerminal(t, ts, st.ID, 10*time.Second)
	}

	// Build a backlog much larger than one service time, grab the
	// estimate, and measure the actual drain.
	const burst = 20
	var last JobStatus
	for i := 0; i < burst; i++ {
		last = submit(t, ts, submitBody("c", 1))
	}
	queued, _, _ := s.adm.depth()
	est := time.Duration(s.retryAfter()) * time.Second
	t0 := obs.Now()
	waitTerminal(t, ts, last.ID, 30*time.Second)
	measured := obs.Now().Sub(t0)
	// The estimate was taken with `queued` jobs pending; scale the
	// measured drain to that backlog (a few jobs may already have run).
	if queued == 0 {
		t.Fatalf("backlog drained before the estimate was read")
	}
	lo, hi := measured/2, 2*measured
	if est < lo || est > hi {
		t.Fatalf("Retry-After estimate %s outside [%s, %s] (measured drain %s for %d queued jobs)",
			est, lo, hi, measured, queued)
	}
	t.Logf("estimate %s, measured drain %s (%d queued, %s/job)", est, measured, queued, perJob)
}

// TestServeMetricsExposed runs one cold+warm job pair against a shared
// registry and checks every new serve series reaches the Prometheus
// exposition.
func TestServeMetricsExposed(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Options{CacheDir: t.TempDir(), DataDir: t.TempDir(), Jobs: 1, Registry: reg})
	st := submit(t, ts, submitBody("alice", 1))
	waitTerminal(t, ts, st.ID, 10*time.Second)
	st2 := submit(t, ts, submitBody("alice", 1))
	waitTerminal(t, ts, st2.ID, 10*time.Second)

	// The terminal state becomes pollable before the worker's final
	// metric observations land; wait for them.
	deadline := obs.Now().Add(5 * time.Second)
	for reg.Snapshot().Histograms["lotterybus_serve_total_seconds"].Count < 2 {
		if obs.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, series := range []string{
		"lotterybus_serve_queue_depth",
		"lotterybus_serve_queue_high_water",
		"lotterybus_serve_admission_seconds",
		"lotterybus_serve_queue_wait_seconds",
		"lotterybus_serve_run_seconds",
		"lotterybus_serve_total_seconds",
		"lotterybus_serve_wal_append_seconds",
		"lotterybus_serve_job_cache_misses_total",
		`lotterybus_serve_job_cache_hits_total{source="memory"}`,
		`lotterybus_serve_ticket_share{client="alice"}`,
		`lotterybus_serve_completed_share{client="alice"}`,
		`lotterybus_serve_admitted_total{client="alice"}`,
	} {
		if !strings.Contains(text, series) {
			t.Fatalf("metrics exposition missing %s:\n%s", series, text)
		}
	}
	// Latency histograms must have real samples.
	snap := reg.Snapshot()
	for _, name := range []string{"lotterybus_serve_run_seconds", "lotterybus_serve_total_seconds", "lotterybus_serve_admission_seconds"} {
		if snap.Histograms[name].Count < 2 {
			t.Fatalf("%s count = %d, want >= 2", name, snap.Histograms[name].Count)
		}
	}
	// Completed share for the only client is exactly 1.
	if got := snap.Gauges[`lotterybus_serve_completed_share{client="alice"}`]; got != 1 {
		t.Fatalf("completed share = %g, want 1", got)
	}
}
