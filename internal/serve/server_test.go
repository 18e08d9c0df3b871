package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lotterybus"
	"lotterybus/internal/obs"
	"lotterybus/internal/simcfg"
)

// testConfig is a small, fast simulation: two bursty masters on a
// lottery bus, ~20k cycles.
const testConfig = `{
  "cycles": 20000,
  "seed": 7,
  "maxBurst": 8,
  "arbiter": {"kind": "lottery"},
  "slaves": [{"name": "mem"}],
  "masters": [
    {"name": "m1", "weight": 1, "traffic": {"kind": "bursty", "load": 0.2, "msgWords": 8}},
    {"name": "m2", "weight": 2, "traffic": {"kind": "bursty", "load": 0.4, "msgWords": 8}}
  ]
}`

// seedZeroConfig is testConfig at seed 0, where several replicas would
// share an arbiter stream.
var seedZeroConfig = strings.Replace(testConfig, `"seed": 7`, `"seed": 0`, 1)

func submitBody(client string, replicate int) string {
	return fmt.Sprintf(`{"client":%q,"replicate":%d,"config":%s}`, client, replicate, testConfig)
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Abort()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) JobStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var sb strings.Builder
		bufio.NewReader(resp.Body).WriteTo(&sb)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, sb.String())
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string, within time.Duration) JobStatus {
	t.Helper()
	deadline := obs.Now().Add(within)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if obs.Now().After(deadline) {
			t.Fatalf("job %s still %s after %s", id, st.State, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitRunReplay(t *testing.T) {
	s, ts := newTestServer(t, Options{CacheDir: t.TempDir(), DataDir: t.TempDir(), Jobs: 1})

	st := submit(t, ts, submitBody("alice", 2))
	if st.ID == "" {
		t.Fatalf("submit returned %+v, want a job ID", st)
	}
	done := waitTerminal(t, ts, st.ID, 10*time.Second)
	if done.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", done.State, done.Reason)
	}
	if len(done.Replicas) != 2 {
		t.Fatalf("got %d replicas, want 2", len(done.Replicas))
	}
	for i, r := range done.Replicas {
		if r.Replica != i || r.Fingerprint == "" || r.Cycles != 20000 {
			t.Fatalf("replica %d malformed: %+v", i, r)
		}
		if r.Source != "computed" {
			t.Fatalf("cold replica %d source %q, want computed", i, r.Source)
		}
	}

	// Warm resubmit: same config, every replica must replay from cache.
	st2 := submit(t, ts, submitBody("alice", 2))
	done2 := waitTerminal(t, ts, st2.ID, 10*time.Second)
	if done2.State != StateDone {
		t.Fatalf("warm job ended %s (%s), want done", done2.State, done2.Reason)
	}
	for i, r := range done2.Replicas {
		if r.Source == "computed" {
			t.Fatalf("warm replica %d was re-simulated", i)
		}
		if r.Fingerprint != done.Replicas[i].Fingerprint {
			t.Fatalf("replica %d fingerprint changed on replay: %s != %s",
				i, r.Fingerprint, done.Replicas[i].Fingerprint)
		}
	}
	if hits := s.Cache().Stats().Hits(); hits < 2 {
		t.Fatalf("cache hits = %d, want >= 2", hits)
	}
}

// TestLanesMatchScalar submits a plain config and the same config
// with the split watchdog armed. Both jobs must finish done, every
// replica lane carrying the fingerprint of a direct scalar System run.
func TestLanesMatchScalar(t *testing.T) {
	_, ts := newTestServer(t, Options{CacheDir: t.TempDir(), Jobs: 1})
	armed := strings.Replace(testConfig, `"maxBurst": 8,`, `"maxBurst": 8, "resilience": {"splitTimeout": 500},`, 1)
	for _, config := range []string{testConfig, armed} {
		cfg, err := simcfg.ParseConfig(strings.NewReader(config))
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"client":"a","replicate":3,"config":%s}`, config)
		st := waitTerminal(t, ts, submit(t, ts, body).ID, 10*time.Second)
		if st.State != StateDone || len(st.Replicas) != 3 {
			t.Fatalf("job: %s (%s) with %d replicas", st.State, st.Reason, len(st.Replicas))
		}
		for i, r := range st.Replicas {
			c := *cfg
			c.Seed += uint64(i)
			sys, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(c.Cycles); err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("%016x", sys.Collector().Fingerprint()); r.Fingerprint != want {
				t.Fatalf("replica %d: fingerprint %s, direct run %s", i, r.Fingerprint, want)
			}
		}
	}
}

// TestConcurrentDuplicateJobsSimulateOnce pins the cache flight around
// each replica's simulation: two identical jobs running at once simulate
// each replica exactly once between them, the other job taking the
// published result. It covers a watchdog-armed config and the sample
// config, and counts simulate spans, so a job that simulated a replica
// and then found it already published still counts.
func TestConcurrentDuplicateJobsSimulateOnce(t *testing.T) {
	const replicate = 3
	sample := simcfg.SampleConfig()
	sample.Cycles = 1000000
	sampleJSON, err := json.Marshal(sample)
	if err != nil {
		t.Fatal(err)
	}
	armed := strings.Replace(testConfig, `"maxBurst": 8,`, `"maxBurst": 8, "resilience": {"splitTimeout": 500},`, 1)
	armed = strings.Replace(armed, `"cycles": 20000`, `"cycles": 1000000`, 1)
	for name, config := range map[string]string{"armed": armed, "sample": string(sampleJSON)} {
		_, ts := newTestServer(t, Options{Jobs: 2, ReplicaWorkers: 1})
		body := fmt.Sprintf(`{"client":"a","replicate":%d,"config":%s}`, replicate, config)
		first, second := submit(t, ts, body), submit(t, ts, body)
		computed, simulated := 0, 0
		var fps [2][]string
		for k, id := range []string{first.ID, second.ID} {
			st := waitTerminal(t, ts, id, 30*time.Second)
			if st.State != StateDone || len(st.Replicas) != replicate {
				t.Fatalf("%s job %s: %s (%s) with %d replicas", name, id, st.State, st.Reason, len(st.Replicas))
			}
			for _, r := range st.Replicas {
				if r.Source == "computed" {
					computed++
				}
				fps[k] = append(fps[k], r.Fingerprint)
			}
			simulated += spanCounts(getTrace(t, ts.URL, id))["simulate"]
		}
		if computed != replicate || simulated != replicate {
			t.Errorf("%s: %d replicas computed and %d simulated across two identical jobs, want %d each",
				name, computed, simulated, replicate)
		}
		if fmt.Sprint(fps[0]) != fmt.Sprint(fps[1]) {
			t.Errorf("%s: fingerprints differ: %v vs %v", name, fps[0], fps[1])
		}
	}
}

// TestCanceledJobSparesItsDuplicate cancels a job while an identical
// job waits on its replica's cache flight. The cancellation is the
// first job's alone: the second must simulate the replica itself and
// finish done with the direct run's fingerprint, not inherit
// context.Canceled and stall as interrupted.
func TestCanceledJobSparesItsDuplicate(t *testing.T) {
	cfg := simcfg.SampleConfig()
	cfg.Cycles = 16 * lotterybus.RunChunk
	config, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Jobs: 2, ReplicaWorkers: 1})
	body := fmt.Sprintf(`{"client":"a","replicate":1,"config":%s}`, config)
	waitSpan := func(id, name string) {
		t.Helper()
		deadline := obs.Now().Add(30 * time.Second)
		for spanCounts(getTrace(t, ts.URL, id))[name] == 0 {
			if obs.Now().After(deadline) {
				t.Fatalf("job %s: no %s span after 30s", id, name)
			}
			time.Sleep(time.Millisecond)
		}
	}
	first := submit(t, ts, body)
	waitSpan(first.ID, "chunk") // first leads the replica's flight
	second := submit(t, ts, body)
	waitSpan(second.ID, "cache_probe") // second missed and joins the flight
	time.Sleep(20 * time.Millisecond)  // let it block on the leader
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+first.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := waitTerminal(t, ts, first.ID, 30*time.Second); st.State != StateCanceled {
		t.Fatalf("first job: %s (%s), want canceled", st.State, st.Reason)
	}
	st := waitTerminal(t, ts, second.ID, 60*time.Second)
	if st.State != StateDone || len(st.Replicas) != 1 {
		t.Fatalf("second job: %s (%s) with %d replicas, want done", st.State, st.Reason, len(st.Replicas))
	}
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(cfg.Cycles); err != nil {
		t.Fatal(err)
	}
	if r, want := st.Replicas[0], fmt.Sprintf("%016x", sys.Collector().Fingerprint()); r.Source != "computed" || r.Fingerprint != want {
		t.Fatalf("second job's replica: %s fingerprint %s, want computed %s", r.Source, r.Fingerprint, want)
	}
}

func TestStreamReplaysAndFollows(t *testing.T) {
	_, ts := newTestServer(t, Options{CacheDir: t.TempDir(), Jobs: 1})
	st := submit(t, ts, submitBody("a", 2))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec struct {
			Event string `json:"event"`
			ID    string `json:"id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("stream line not JSON: %q", sc.Text())
		}
		if rec.ID != st.ID {
			t.Fatalf("stream event for %q on %q's stream", rec.ID, st.ID)
		}
		events = append(events, rec.Event)
	}
	joined := strings.Join(events, ",")
	if !strings.HasPrefix(joined, "accepted,started") {
		t.Fatalf("stream should replay from the beginning, got %s", joined)
	}
	if strings.Count(joined, "replica_done") != 2 || !strings.HasSuffix(joined, "done") {
		t.Fatalf("stream = %s, want 2 replica_done and a final done", joined)
	}
}

func TestRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Jobs: 1})
	for name, body := range map[string]string{
		"not json":        "{",
		"unknown field":   `{"clientzz":"x","config":` + testConfig + `}`,
		"no config":       `{"client":"x"}`,
		"bad client":      `{"client":"../../etc","config":` + testConfig + `}`,
		"replicate":       `{"replicate":10000,"config":` + testConfig + `}`,
		"lanes field":     `{"lanes":true,"config":` + testConfig + `}`,
		"seed 0 replicas": `{"replicate":2,"config":` + seedZeroConfig + `}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Options{DataDir: t.TempDir(), Jobs: 1})
	block := make(chan struct{})
	s.execHook = func(ctx context.Context, job *Job) error {
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	first := submit(t, ts, submitBody("a", 1))
	queued := submit(t, ts, submitBody("a", 1))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	got := waitTerminal(t, ts, queued.ID, 2*time.Second)
	if got.State != StateCanceled {
		t.Fatalf("queued job after cancel: %s, want canceled", got.State)
	}
	close(block)
	if st := waitTerminal(t, ts, first.ID, 2*time.Second); st.State != StateDone {
		t.Fatalf("first job: %s, want done", st.State)
	}
}

func TestCancelRunningJobStopsWork(t *testing.T) {
	s, ts := newTestServer(t, Options{DataDir: t.TempDir(), Jobs: 1})
	started := make(chan struct{})
	s.execHook = func(ctx context.Context, job *Job) error {
		close(started)
		<-ctx.Done() // a cooperative simulation loop: RunContext returns ctx.Err()
		return ctx.Err()
	}
	st := submit(t, ts, submitBody("a", 1))
	<-started
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := waitTerminal(t, ts, st.ID, 2*time.Second)
	if got.State != StateCanceled {
		t.Fatalf("running job after cancel: %s (%s), want canceled", got.State, got.Reason)
	}
}

func TestJobTimeout(t *testing.T) {
	s, ts := newTestServer(t, Options{DataDir: t.TempDir(), Jobs: 1, JobTimeout: 30 * time.Millisecond})
	s.execHook = func(ctx context.Context, job *Job) error {
		<-ctx.Done()
		return ctx.Err()
	}
	st := submit(t, ts, submitBody("a", 1))
	got := waitTerminal(t, ts, st.ID, 2*time.Second)
	if got.State != StateFailed || !strings.Contains(got.Reason, "timeout") {
		t.Fatalf("timed-out job: %s (%s), want failed with timeout reason", got.State, got.Reason)
	}
	// The timeout is journaled as terminal: a restart must NOT re-run it.
	s.Abort()
	s2, err := New(Options{DataDir: s.opts.DataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Abort()
	if q, _, _ := s2.adm.depth(); q != 0 {
		t.Fatalf("timed-out job re-enqueued on restart (queue depth %d)", q)
	}
}

func TestTransientFailureRetries(t *testing.T) {
	s, ts := newTestServer(t, Options{DataDir: t.TempDir(), Jobs: 1})
	attempts := 0
	s.execHook = func(ctx context.Context, job *Job) error {
		attempts++
		if attempts < 3 {
			return &fs.PathError{Op: "write", Path: "cache/xx", Err: fmt.Errorf("disk full")}
		}
		return nil
	}
	st := submit(t, ts, submitBody("a", 1))
	got := waitTerminal(t, ts, st.ID, 5*time.Second)
	if got.State != StateDone {
		t.Fatalf("job with transient failures ended %s (%s), want done", got.State, got.Reason)
	}
	if got.Attempts != 3 || attempts != 3 {
		t.Fatalf("attempts = %d (hook saw %d), want 3", got.Attempts, attempts)
	}
}

func TestPermanentFailureDoesNotRetry(t *testing.T) {
	s, ts := newTestServer(t, Options{Jobs: 1})
	attempts := 0
	s.execHook = func(ctx context.Context, job *Job) error {
		attempts++
		return fmt.Errorf("bad arbiter state")
	}
	st := submit(t, ts, submitBody("a", 1))
	got := waitTerminal(t, ts, st.ID, 2*time.Second)
	if got.State != StateFailed || attempts != 1 {
		t.Fatalf("permanent failure: state %s after %d attempts, want failed after 1", got.State, attempts)
	}
}

func TestDrainFinishesInFlightAndRefusesNew(t *testing.T) {
	dataDir := t.TempDir()
	s, ts := newTestServer(t, Options{DataDir: dataDir, Jobs: 1})
	release := make(chan struct{})
	s.execHook = func(ctx context.Context, job *Job) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	running := submit(t, ts, submitBody("a", 1))
	queued := submit(t, ts, submitBody("a", 1))

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	// Draining: new submissions refused with 503.
	var got503 bool
	for i := 0; i < 100; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(submitBody("a", 1)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			got503 = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !got503 {
		t.Fatal("submission during drain never got 503")
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := s.lookup(running.ID).State(); st != StateDone {
		t.Fatalf("in-flight job after drain: %s, want done", st)
	}

	// The queued job stayed in the WAL; a new server recovers it.
	s2, err := New(Options{DataDir: dataDir, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Abort()
	rec := s2.lookup(queued.ID)
	if rec == nil || rec.State() != StateQueued {
		t.Fatalf("queued job not recovered after drain (got %v)", rec)
	}
	if s2.lookup(running.ID) != nil {
		t.Fatal("finished job resurrected on restart")
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{CacheDir: t.TempDir(), Jobs: 1})
	st := submit(t, ts, submitBody("a", 1))
	waitTerminal(t, ts, st.ID, 10*time.Second)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Queue struct {
			Capacity int `json:"capacity"`
		} `json:"queue"`
		Jobs map[string]int `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Queue.Capacity != 256 || body.Jobs["done"] != 1 {
		t.Fatalf("stats = %+v, want capacity 256 and one done job", body)
	}
}

func TestParseJobCanonicalRoundTrip(t *testing.T) {
	job, err := ParseJob(strings.NewReader(submitBody("a", 2)), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// The canonical bytes must re-parse to the same canonical bytes —
	// the WAL recovery path depends on this fixed point.
	rec := walRecord{ID: "j1", Client: job.Client, Replicate: job.Replicate, Config: json.RawMessage(job.Canonical)}
	re, err := jobFromWAL(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Canonical, job.Canonical) {
		t.Fatalf("canonical not a fixed point:\n%s\nvs\n%s", job.Canonical, re.Canonical)
	}
}
