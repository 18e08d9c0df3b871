package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// The write-ahead job journal: one JSON object per line, appended and
// fsynced before a job's 202 is sent, so an accepted job survives a
// crash of the process. Two record kinds:
//
//	{"op":"accept","id":"j7","client":"alice","replicate":4,"config":{...canonical...}}
//	{"op":"end","id":"j7","status":"done"}
//
// Recovery is a replay: accepts without a matching end are the jobs the
// crash interrupted; the canonical config bytes in the accept record
// are a fixed point of the strict parser (simcfg.TestCanonicalRoundTrip),
// so the job rebuilds exactly. Wherever replicas finished before the
// crash their results sit in the content-addressed cache, and the re-run
// is pure replay. On open the log is compacted: ended jobs are dropped
// and pending accepts rewritten, so the file stays proportional to the
// queue, not to history. Compaction first writes a third kind,
//
//	{"op":"seq","id":"j9"}
//
// carrying the highest job ID ever handed out, so the ID sequence
// survives any number of restarts even when that job has ended.
type walRecord struct {
	Op        string          `json:"op"`
	ID        string          `json:"id"`
	Client    string          `json:"client,omitempty"`
	Replicate int             `json:"replicate,omitempty"`
	Config    json.RawMessage `json:"config,omitempty"`
	Status    string          `json:"status,omitempty"`
	Reason    string          `json:"reason,omitempty"`
}

type wal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// openWAL opens (creating if needed) dir/jobs.wal, returns the pending
// accept records in file order, and the highest numeric job ID seen —
// the server continues its ID sequence from there so recovered and new
// jobs never collide.
func openWAL(dir string) (*wal, []walRecord, int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("serve: wal dir: %w", err)
	}
	path := filepath.Join(dir, "jobs.wal")
	pending, maxID, err := readWAL(path)
	if err != nil {
		return nil, nil, 0, err
	}
	// Compact, then append from the compacted file.
	if err := compactWAL(path, pending, maxID); err != nil {
		return nil, nil, 0, fmt.Errorf("serve: wal compact: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: wal open: %w", err)
	}
	return &wal{f: f, path: path}, pending, maxID, nil
}

// compactWAL rewrites the log at path to hold only the seq record for
// maxID and the pending accepts, durably: the new log is written to a
// temp file and fsynced before the rename replaces the old one, and the
// directory is fsynced after it. A power loss then leaves the old log or
// the complete new one under path, never a renamed file whose data had
// not reached the disk — which would come back empty and lose every
// pending job.
func compactWAL(path string, pending []walRecord, maxID int64) error {
	var buf bytes.Buffer
	recs := pending
	if maxID > 0 {
		recs = append([]walRecord{{Op: "seq", ID: fmt.Sprintf("j%d", maxID)}}, pending...)
	}
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(buf.Bytes())
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readWAL parses the log, tolerating a truncated final line (the crash
// may have landed mid-write; an unparseable tail is an unacknowledged
// record, safe to drop). Recovery compacts the log, so a torn record is
// only ever the last one: an unparseable line with records after it is
// corruption of an acknowledged record, and recovery fails naming it
// rather than silently losing the job it may hold.
func readWAL(path string) ([]walRecord, int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: wal read: %w", err)
	}
	defer f.Close()
	accepts := make(map[string]walRecord)
	var order []string
	var maxID int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	torn := 0 // line number of an unparseable line, 0 when none
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if torn > 0 {
			return nil, 0, fmt.Errorf("serve: wal %s: line %d is corrupt and not the last record", path, torn)
		}
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			torn = lineNo // dropped if nothing follows: a torn, unacknowledged tail
			continue
		}
		if n, ok := numericID(rec.ID); ok && n > maxID {
			maxID = n
		}
		switch rec.Op {
		case "accept":
			if _, dup := accepts[rec.ID]; !dup {
				accepts[rec.ID] = rec
				order = append(order, rec.ID)
			}
		case "end":
			delete(accepts, rec.ID)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("serve: wal read: %w", err)
	}
	pending := make([]walRecord, 0, len(accepts))
	for _, id := range order {
		if rec, ok := accepts[id]; ok {
			pending = append(pending, rec)
		}
	}
	return pending, maxID, nil
}

// numericID extracts the sequence number from a "j<n>" job ID.
func numericID(id string) (int64, bool) {
	if !strings.HasPrefix(id, "j") {
		return 0, false
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	return n, err == nil
}

// appendAccept durably records an admitted job before its 202 is sent.
func (w *wal) appendAccept(job *Job) error {
	if w == nil {
		return nil
	}
	return w.append(walRecord{
		Op:        "accept",
		ID:        job.ID,
		Client:    job.Client,
		Replicate: job.Replicate,
		Config:    json.RawMessage(job.Canonical),
	})
}

// appendEnd records a terminal outcome. Jobs interrupted by a crash or
// drain timeout deliberately get NO end record — the absence is the
// checkpoint that re-enqueues them on restart.
func (w *wal) appendEnd(id string, status JobState, reason string) error {
	if w == nil {
		return nil
	}
	return w.append(walRecord{Op: "end", ID: id, Status: string(status), Reason: reason})
}

func (w *wal) append(rec walRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: wal append: %w", err)
	}
	b = append(b, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(b); err != nil {
		return fmt.Errorf("serve: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("serve: wal sync: %w", err)
	}
	return nil
}

// writable probes the WAL (readiness check): the file is open and its
// directory still accepts writes.
func (w *wal) writable() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("wal closed")
	}
	if _, err := os.Stat(filepath.Dir(w.path)); err != nil {
		return err
	}
	return nil
}

// close flushes and closes the log file.
func (w *wal) close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
