package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// recoveryConfig is sized so one replica takes tens of milliseconds:
// long enough to kill the server mid-job, short enough for CI.
const recoveryConfig = `{
  "cycles": 2000000,
  "seed": 11,
  "maxBurst": 8,
  "arbiter": {"kind": "lottery"},
  "slaves": [{"name": "mem"}],
  "masters": [
    {"name": "m1", "weight": 1, "traffic": {"kind": "bursty", "load": 0.3, "msgWords": 8}},
    {"name": "m2", "weight": 3, "traffic": {"kind": "bursty", "load": 0.5, "msgWords": 8}}
  ]
}`

// TestCrashRecovery kills the server mid-sweep and restarts it on the
// same cache and data directories. The restarted server re-enqueues the
// job from the WAL and finishes it with fingerprints byte-identical to a
// control server that was never killed. Each replica publishes as it
// finishes, so the replicas done before a kill mid-sweep replay from the
// cache; a kill right after the job starts leaves every replica to
// simulate again. The cases are named for the replica engines they were
// first written for: "scalar" arms the starvation detector, so every
// replica runs the naive per-cycle loop, and is killed right after the
// job starts; "lanes" is the plain config, whose replicas fast-forward,
// killed mid-sweep after two replicas finish.
func TestCrashRecovery(t *testing.T) {
	naiveConfig := strings.Replace(recoveryConfig, `"maxBurst": 8,`, `"maxBurst": 8, "resilience": {"starvationThreshold": 1000000},`, 1)
	t.Run("scalar", func(t *testing.T) { crashRecovery(t, naiveConfig, "started", 1) })
	t.Run("lanes", func(t *testing.T) { crashRecovery(t, recoveryConfig, "replica_done", 2) })
}

// crashRecovery runs one TestCrashRecovery case: the victim server is
// killed once its job stream has shown `kills` events named killAt.
func crashRecovery(t *testing.T, config, killAt string, kills int) {
	cacheDir, dataDir := t.TempDir(), t.TempDir()
	body := fmt.Sprintf(`{"client":"a","replicate":4,"config":%s}`, config)

	// Control: a server that is never killed.
	_, tsControl := newTestServer(t, Options{CacheDir: t.TempDir(), Jobs: 1, ReplicaWorkers: 1})
	control := waitTerminal(t, tsControl, submit(t, tsControl, body).ID, 30*time.Second)
	if control.State != StateDone || len(control.Replicas) != 4 {
		t.Fatalf("control run: %s with %d replicas", control.State, len(control.Replicas))
	}

	// Victim: serial replicas so "finished before the kill" is
	// well-defined.
	s1, err := New(Options{CacheDir: cacheDir, DataDir: dataDir, Jobs: 1, ReplicaWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	st := submit(t, ts1, body)

	resp, err := http.Get(ts1.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	finished := map[int]bool{}
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec struct {
			Event   string `json:"event"`
			Replica int    `json:"replica"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Event == "replica_done" {
			finished[rec.Replica] = true
		}
		if rec.Event == killAt {
			if seen++; seen == kills {
				break
			}
		}
		if rec.Event == "done" {
			break
		}
	}
	resp.Body.Close()
	if seen < kills {
		t.Fatalf("stream ended after %d %s events, want %d", seen, killAt, kills)
	}
	// Crash-stop: contexts cancelled mid-run, WAL closed with the
	// accept record still unanswered — what kill -9 leaves behind.
	s1.Abort()
	ts1.Close()

	// Restart on the same directories: the WAL re-enqueues the job
	// under its old ID and the run completes.
	s2, err := New(Options{CacheDir: cacheDir, DataDir: dataDir, Jobs: 1, ReplicaWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Abort()
	}()
	if s2.lookup(st.ID) == nil {
		t.Fatalf("job %s not recovered from WAL", st.ID)
	}
	got := waitTerminal(t, ts2, st.ID, 30*time.Second)
	if got.State != StateDone || len(got.Replicas) != 4 {
		t.Fatalf("recovered run: %s (%s) with %d replicas", got.State, got.Reason, len(got.Replicas))
	}

	for i := range got.Replicas {
		if got.Replicas[i].Fingerprint != control.Replicas[i].Fingerprint {
			t.Errorf("replica %d fingerprint diverged after crash: %s != control %s",
				i, got.Replicas[i].Fingerprint, control.Replicas[i].Fingerprint)
		}
	}
	// Replicas that finished before the kill must come back as disk
	// replays, never re-simulations.
	for i := range finished {
		if src := got.Replicas[i].Source; src == "computed" {
			t.Errorf("replica %d finished before the crash but was re-simulated", i)
		}
	}

	// The completed job is terminal in the WAL now: a third start has
	// nothing to recover.
	s2.Abort()
	s3, err := New(Options{CacheDir: cacheDir, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Abort()
	if q, _, _ := s3.adm.depth(); q != 0 {
		t.Fatalf("completed job re-enqueued on third start (depth %d)", q)
	}
}

// TestRecoveryPreservesSeedIdentity checks the WAL round trip feeds the
// exact canonical config back into the job: replica seeds and cache
// keys line up with the pre-crash run.
func TestRecoveryPreservesSeedIdentity(t *testing.T) {
	dataDir := t.TempDir()
	s1, err := New(Options{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	st := submit(t, ts1, fmt.Sprintf(`{"client":"a","replicate":3,"config":%s}`, recoveryConfig))
	orig := s1.lookup(st.ID)
	ts1.Close()
	s1.Abort() // workers never started; the job sits accepted in the WAL

	s2, err := New(Options{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Abort()
	rec := s2.lookup(st.ID)
	if rec == nil {
		t.Fatal("job not recovered")
	}
	if string(rec.Canonical) != string(orig.Canonical) {
		t.Fatalf("canonical config changed across recovery:\n%s\nvs\n%s", rec.Canonical, orig.Canonical)
	}
	if rec.Replicate != orig.Replicate || rec.Client != orig.Client || rec.cfg.Seed != orig.cfg.Seed {
		t.Fatalf("job identity changed: %+v vs %+v", rec, orig)
	}
}
