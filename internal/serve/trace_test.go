package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"lotterybus/internal/obs"
	"lotterybus/internal/simcfg"
)

// chromeDoc is the subset of the Chrome trace-event format the tests
// inspect.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// getTrace fetches and parses a job's Chrome trace export.
func getTrace(t *testing.T, url, id string) chromeDoc {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint: status %d", resp.StatusCode)
	}
	var doc chromeDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace endpoint returned invalid JSON: %v", err)
	}
	return doc
}

// spanCounts folds a trace export to name -> occurrence count.
func spanCounts(doc chromeDoc) map[string]int {
	out := map[string]int{}
	for _, ev := range doc.TraceEvents {
		out[ev.Name]++
	}
	return out
}

// TestTraceColdVsWarmSpanTrees checks that the same job run cold
// (simulating) and warm (cache replay) produces structurally different
// span trees — the cold trace has a simulate span with chunk children
// and a snapshot_publish per replica, the warm one resolves entirely at
// the cache probes.
func TestTraceColdVsWarmSpanTrees(t *testing.T) {
	_, ts := newTestServer(t, Options{CacheDir: t.TempDir(), Jobs: 1})

	cold := submit(t, ts, submitBody("alice", 2))
	if got := waitTerminal(t, ts, cold.ID, 10*time.Second); got.State != StateDone {
		t.Fatalf("cold job ended %s (%s)", got.State, got.Reason)
	}
	warm := submit(t, ts, submitBody("alice", 2))
	if got := waitTerminal(t, ts, warm.ID, 10*time.Second); got.State != StateDone {
		t.Fatalf("warm job ended %s (%s)", got.State, got.Reason)
	}

	coldDoc, warmDoc := getTrace(t, ts.URL, cold.ID), getTrace(t, ts.URL, warm.ID)
	for _, doc := range []chromeDoc{coldDoc, warmDoc} {
		if doc.DisplayTimeUnit != "ms" {
			t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
		}
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" || ev.PID != 1 {
				t.Fatalf("event %q: ph=%q pid=%d, want complete events with pid 1", ev.Name, ev.Ph, ev.PID)
			}
		}
	}

	coldN, warmN := spanCounts(coldDoc), spanCounts(warmDoc)
	for _, name := range []string{"admit", "queue_wait", "lottery_draw", "run", "attempt", "cache_probe"} {
		if coldN[name] == 0 {
			t.Fatalf("cold trace missing %q span (have %v)", name, coldN)
		}
	}
	// Cold: two replicas, each with one simulate span (with chunks) and
	// one snapshot_publish on its own track.
	if coldN["replica 0"] != 1 || coldN["replica 1"] != 1 {
		t.Fatalf("cold trace replica spans = %v, want one each for replicas 0 and 1", coldN)
	}
	if coldN["simulate"] != 2 || coldN["snapshot_publish"] != 2 {
		t.Fatalf("cold trace simulate/snapshot_publish = %d/%d, want 2/2", coldN["simulate"], coldN["snapshot_publish"])
	}
	if coldN["chunk"] < 1 {
		t.Fatalf("cold trace chunk spans = %d, want >= 1", coldN["chunk"])
	}
	// Warm: cache probes hit, nothing simulates, nothing re-publishes.
	if warmN["cache_probe"] != 2 {
		t.Fatalf("warm trace cache_probe spans = %d, want 2", warmN["cache_probe"])
	}
	if warmN["simulate"] != 0 || warmN["chunk"] != 0 || warmN["snapshot_publish"] != 0 {
		t.Fatalf("warm trace still simulates: %v", warmN)
	}
	// Probe args label hit/miss explicitly.
	for _, ev := range warmDoc.TraceEvents {
		if ev.Name == "cache_probe" {
			if hit, _ := ev.Args["hit"].(bool); !hit {
				t.Fatalf("warm cache_probe args = %v, want hit=true", ev.Args)
			}
		}
	}
	// Replica spans live on their own Chrome tracks (tid = replica+1),
	// and so do their simulations.
	for _, ev := range coldDoc.TraceEvents {
		if ev.Name == "replica 1" && ev.TID != 2 {
			t.Fatalf("replica 1 on tid %d, want 2", ev.TID)
		}
		if ev.Name == "simulate" && (ev.TID < 1 || ev.TID > 2) {
			t.Fatalf("simulate span on tid %d, want a replica track", ev.TID)
		}
	}
}

func TestTraceEndpointUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Jobs: 1})
	resp, err := http.Get(ts.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace: status %d, want 404", resp.StatusCode)
	}
}

// TestTerminalEventCarriesSpanTotals checks the JSONL stream folds the
// per-stage latency decomposition into the terminal event.
func TestTerminalEventCarriesSpanTotals(t *testing.T) {
	_, ts := newTestServer(t, Options{Jobs: 1})
	st := submit(t, ts, submitBody("alice", 1))
	waitTerminal(t, ts, st.ID, 10*time.Second)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var terminal map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("stream line not JSON: %v: %s", err, line)
		}
		if ev["event"] == "done" {
			terminal = ev
		}
	}
	if terminal == nil {
		t.Fatalf("no done event in stream:\n%s", buf.String())
	}
	spans, ok := terminal["spans_us"].(map[string]any)
	if !ok {
		t.Fatalf("done event has no spans_us totals: %v", terminal)
	}
	for _, name := range []string{"admit", "queue_wait", "run"} {
		if _, ok := spans[name]; !ok {
			t.Fatalf("spans_us missing %q: %v", name, spans)
		}
	}
}

// TestTracingLeavesSimulationUntouched is the fingerprint pin: a job
// served with full tracing produces byte-identical collector
// fingerprints to a plain untraced run, and the observed chunked run
// keeps the fast-forward engine engaged.
func TestTracingLeavesSimulationUntouched(t *testing.T) {
	cfg, err := simcfg.ParseConfig(strings.NewReader(testConfig))
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: plain Run, no instrumentation anywhere near it.
	base, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Run(cfg.Cycles); err != nil {
		t.Fatal(err)
	}
	baseFP := base.Collector().Fingerprint()
	baseFF := base.FastForwardedCycles()
	if baseFF == 0 {
		t.Fatal("baseline run never fast-forwarded; the eligibility pin below would be vacuous")
	}

	// Observed chunked run: same fingerprint, fast-forward still engaged.
	obsSys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	chunks := 0
	if err := obsSys.RunContextObserved(context.Background(), cfg.Cycles, func(done, total int64) {
		chunks++
		if done > total {
			t.Fatalf("observer saw done %d > total %d", done, total)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if chunks == 0 {
		t.Fatal("observer never fired")
	}
	if got := obsSys.Collector().Fingerprint(); got != baseFP {
		t.Fatalf("observed run fingerprint %016x != baseline %016x", got, baseFP)
	}
	if got := obsSys.FastForwardedCycles(); got != baseFF {
		t.Fatalf("observed run fast-forwarded %d cycles, baseline %d — tracing cost fast-forward eligibility", got, baseFF)
	}

	// Served job: the fully traced pipeline reports the same fingerprint.
	_, ts := newTestServer(t, Options{CacheDir: t.TempDir(), Jobs: 1})
	st := submit(t, ts, submitBody("alice", 1))
	done := waitTerminal(t, ts, st.ID, 10*time.Second)
	if done.State != StateDone || len(done.Replicas) != 1 {
		t.Fatalf("served job: %+v", done)
	}
	if want := fmt.Sprintf("%016x", baseFP); done.Replicas[0].Fingerprint != want {
		t.Fatalf("served fingerprint %s != untraced %s", done.Replicas[0].Fingerprint, want)
	}
}

// syncBuffer is an io.Writer safe for the journal goroutine + test
// reader pair.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowJobJournalsSpanTree checks any job slower than -slow-job gets
// its full span tree journaled.
func TestSlowJobJournalsSpanTree(t *testing.T) {
	var sb syncBuffer
	_, ts := newTestServer(t, Options{
		Jobs:    1,
		SlowJob: time.Nanosecond, // everything is slow
		Journal: obs.NewJournal(&sb),
	})
	st := submit(t, ts, submitBody("alice", 1))
	waitTerminal(t, ts, st.ID, 10*time.Second)

	deadline := obs.Now().Add(5 * time.Second)
	for !strings.Contains(sb.String(), `"slow_job"`) {
		if obs.Now().After(deadline) {
			t.Fatalf("no slow_job event journaled; journal:\n%s", sb.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	var found bool
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var ev map[string]any
		if json.Unmarshal([]byte(line), &ev) != nil {
			continue
		}
		if ev["event"] != "slow_job" {
			continue
		}
		found = true
		if ev["id"] != st.ID {
			t.Fatalf("slow_job for %v, want %s", ev["id"], st.ID)
		}
		spans, ok := ev["spans"].([]any)
		if !ok || len(spans) == 0 {
			t.Fatalf("slow_job carries no span tree: %v", ev)
		}
		names := map[string]bool{}
		for _, s := range spans {
			if m, ok := s.(map[string]any); ok {
				if n, ok := m["name"].(string); ok {
					names[n] = true
				}
			}
		}
		for _, want := range []string{"admit", "run", "simulate"} {
			if !names[want] {
				t.Fatalf("slow_job span tree missing %q: %v", want, names)
			}
		}
	}
	if !found {
		t.Fatal("slow_job line did not parse")
	}
}
