package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, pending, maxID, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 || maxID != 0 {
		t.Fatalf("fresh WAL: pending=%d maxID=%d, want 0,0", len(pending), maxID)
	}
	j1 := &Job{ID: "j1", Client: "a", Replicate: 2, Canonical: []byte(`{"cycles":1}`)}
	j2 := &Job{ID: "j2", Client: "b", Replicate: 1, Canonical: []byte(`{"cycles":2}`)}
	if err := w.appendAccept(j1); err != nil {
		t.Fatal(err)
	}
	if err := w.appendAccept(j2); err != nil {
		t.Fatal(err)
	}
	if err := w.appendEnd("j1", StateDone, ""); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	w2, pending, maxID, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if maxID != 2 {
		t.Fatalf("maxID = %d, want 2", maxID)
	}
	if len(pending) != 1 || pending[0].ID != "j2" {
		t.Fatalf("pending = %+v, want exactly j2 (j1 ended)", pending)
	}
	if pending[0].Client != "b" || pending[0].Replicate != 1 {
		t.Fatalf("pending j2 lost fields: %+v", pending[0])
	}
	// Compaction on open rewrote the file to the seq record and the
	// pending accepts only.
	b, err := os.ReadFile(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 {
		t.Fatalf("compacted WAL has %d lines, want 2:\n%s", len(lines), b)
	}
	for i, want := range []walRecord{{Op: "seq", ID: "j2"}, {Op: "accept", ID: "j2"}} {
		var rec walRecord
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil || rec.Op != want.Op || rec.ID != want.ID {
			t.Fatalf("compacted record %d = %q (err %v), want %s %s", i, lines[i], err, want.Op, want.ID)
		}
	}
}

// TestWALIDsSurviveTwoRestarts pins that the ID sequence never resumes
// below an ID already handed out: j2 ends, so after the first restart's
// compaction no accept carries it, and only the seq record keeps it.
func TestWALIDsSurviveTwoRestarts(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"j1", "j2"} {
		if err := w.appendAccept(&Job{ID: id, Client: "a", Replicate: 1, Canonical: []byte(`{"cycles":1}`)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.appendEnd("j2", StateDone, ""); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	for restart := 1; restart <= 2; restart++ {
		w, pending, maxID, err := openWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		if maxID != 2 {
			t.Fatalf("restart %d: maxID = %d, want 2 (j2 was handed out)", restart, maxID)
		}
		if len(pending) != 1 || pending[0].ID != "j1" {
			t.Fatalf("restart %d: pending = %+v, want exactly j1", restart, pending)
		}
	}
}

// TestWALAcceptWithLanesRecovers replays an accept record from before
// jobs lost their "lanes" field: the field is ignored, and the recovered
// job finishes with the fingerprints of a fresh submission.
func TestWALAcceptWithLanesRecovers(t *testing.T) {
	job, err := ParseJob(strings.NewReader(submitBody("a", 2)), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	line := fmt.Sprintf(`{"op":"accept","id":"j1","client":"a","replicate":2,"lanes":true,"config":%s}`+"\n", job.Canonical)
	if err := os.WriteFile(filepath.Join(dataDir, "jobs.wal"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{DataDir: dataDir, Jobs: 1})
	got := waitTerminal(t, ts, "j1", 10*time.Second)

	_, tsFresh := newTestServer(t, Options{Jobs: 1})
	want := waitTerminal(t, tsFresh, submit(t, tsFresh, submitBody("a", 2)).ID, 10*time.Second)
	if got.State != StateDone || len(got.Replicas) != 2 || want.State != StateDone {
		t.Fatalf("recovered job %s (%s) with %d replicas; fresh job %s", got.State, got.Reason, len(got.Replicas), want.State)
	}
	for i := range got.Replicas {
		if got.Replicas[i].Fingerprint != want.Replicas[i].Fingerprint {
			t.Fatalf("replica %d: recovered %s, fresh %s", i, got.Replicas[i].Fingerprint, want.Replicas[i].Fingerprint)
		}
	}
}

// TestWALSeedZeroReplicasFails replays an accept record written before
// seed 0 with several replicas was rejected at submit: the recovered job
// fails with the seed rule's reason instead of running colliding
// replicas or stopping the server.
func TestWALSeedZeroReplicasFails(t *testing.T) {
	job, err := ParseJob(strings.NewReader(`{"client":"a","config":`+seedZeroConfig+`}`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	line := fmt.Sprintf(`{"op":"accept","id":"j1","client":"a","replicate":2,"config":%s}`+"\n", job.Canonical)
	if err := os.WriteFile(filepath.Join(dataDir, "jobs.wal"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{DataDir: dataDir, Jobs: 1})
	got := waitTerminal(t, ts, "j1", 10*time.Second)
	if got.State != StateFailed || !strings.Contains(got.Reason, "seed") {
		t.Fatalf("recovered seed-0 job %s (%q), want failed with the seed rule", got.State, got.Reason)
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.wal")
	content := `{"op":"accept","id":"j3","client":"a","replicate":1,"config":{"cycles":5}}` + "\n" +
		`{"op":"accept","id":"j4","cli` // torn mid-write by the crash
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	w, pending, maxID, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if len(pending) != 1 || pending[0].ID != "j3" {
		t.Fatalf("pending = %+v, want exactly j3 (torn j4 dropped)", pending)
	}
	// j4's ID never parsed, so the sequence resumes from j3.
	if maxID != 3 {
		t.Fatalf("maxID = %d, want 3", maxID)
	}
}

func TestWALDuplicateEndIsHarmless(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{ID: "j9", Client: "a", Replicate: 1, Canonical: []byte(`{}`)}
	if err := w.appendAccept(j); err != nil {
		t.Fatal(err)
	}
	if err := w.appendEnd("j9", StateDone, ""); err != nil {
		t.Fatal(err)
	}
	if err := w.appendEnd("j9", StateCanceled, "late duplicate"); err != nil {
		t.Fatal(err)
	}
	w.close()
	w2, pending, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if len(pending) != 0 {
		t.Fatalf("pending = %+v, want none", pending)
	}
}

func TestWALNilIsNoOp(t *testing.T) {
	var w *wal
	if err := w.appendAccept(&Job{ID: "j1"}); err != nil {
		t.Fatal(err)
	}
	if err := w.appendEnd("j1", StateDone, ""); err != nil {
		t.Fatal(err)
	}
	if err := w.writable(); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALCorruptInteriorFailsRecovery: only the last record can be torn
// by a crash, so an unparseable record with records after it is damage
// to an acknowledged job. Recovery must refuse, naming the line, rather
// than drop the job and carry on.
func TestWALCorruptInteriorFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.wal")
	content := `{"op":"accept","id":"j1","client":"a","replicate":1,"config":{"cycles":5}}` + "\n" +
		`{"op":"accept","id":"j2","client":"a","replicate":1,"config":{"cycles":5}]` + "\n" + // corrupted
		`{"op":"end","id":"j1","status":"done"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	w, pending, _, err := openWAL(dir)
	if err == nil {
		w.close()
		t.Fatalf("recovery succeeded with pending %+v; want an error naming line 2", pending)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %q does not name line 2", err)
	}
	// The log is left as it was, for inspection.
	if b, _ := os.ReadFile(path); string(b) != content {
		t.Fatalf("failed recovery rewrote the log:\n%s", b)
	}
}

// TestWALCompactionSurvivesRestart restarts twice: the first open
// compacts the log to its pending accepts, and the second must recover
// every one of them from the compacted file alone, as must a third
// after a job was accepted on top of it. A compaction that cannot
// write its temp file fails the open and leaves the log as it was.
func TestWALCompactionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.wal")
	w, _, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		job := &Job{ID: fmt.Sprintf("j%d", i), Client: "a", Replicate: i, Canonical: []byte(fmt.Sprintf(`{"cycles":%d}`, i))}
		if err := w.appendAccept(job); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"j2", "j4"} {
		if err := w.appendEnd(id, StateDone, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	reopen := func(want ...string) *wal {
		t.Helper()
		w, pending, _, err := openWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, rec := range pending {
			got = append(got, rec.ID)
			if want := fmt.Sprintf(`{"cycles":%s}`, rec.ID[1:]); string(rec.Config) != want || rec.Client != "a" {
				t.Fatalf("recovered %s with client %q config %s, want a and %s", rec.ID, rec.Client, rec.Config, want)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("pending %v, want %v", got, want)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("compaction left its temp file behind (stat err %v)", err)
		}
		return w
	}
	reopen("j1", "j3").close() // compacts
	w = reopen("j1", "j3")     // reads the compacted log
	if err := w.appendAccept(&Job{ID: "j5", Client: "a", Replicate: 5, Canonical: []byte(`{"cycles":5}`)}); err != nil {
		t.Fatal(err)
	}
	w.close()
	reopen("j1", "j3", "j5").close()

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil { // the temp file cannot be created
		t.Fatal(err)
	}
	if w, _, _, err := openWAL(dir); err == nil {
		w.close()
		t.Fatal("open succeeded although compaction could not write its temp file")
	}
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Fatalf("failed compaction changed the log:\n%s", after)
	}
}
