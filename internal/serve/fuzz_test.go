package serve

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseJob throws arbitrary bytes at the job-request parser: it
// must never panic, and any request it accepts must have canonical
// config bytes that are a fixed point of the parser (the WAL recovery
// invariant).
func FuzzParseJob(f *testing.F) {
	f.Add([]byte(submitBody("alice", 2)))
	f.Add([]byte(submitBody("a.b-c_d", 1)))
	f.Add([]byte(`{"config":{}}`))
	f.Add([]byte(`{"client":"x","replicate":-1,"config":{"cycles":1}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`{"client":"` + strings.Repeat("a", 100) + `","config":{}}`))
	f.Add([]byte(`{"config":{"cycles":10,"seed":0,"arbiter":{"kind":"lottery"},"slaves":[{"name":"s"}],"masters":[{"name":"m","weight":1,"traffic":{"kind":"bernoulli","load":0.1}}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		job, err := ParseJob(bytes.NewReader(data), Limits{})
		if err != nil {
			return
		}
		if job.Replicate < 1 || job.Replicate > 64 {
			t.Fatalf("accepted replicate %d outside limits", job.Replicate)
		}
		if job.Client == "" {
			t.Fatal("accepted job with empty client")
		}
		rec := walRecord{ID: "j1", Client: job.Client, Replicate: job.Replicate, Config: job.Canonical}
		re, err := jobFromWAL(rec)
		if err != nil {
			t.Fatalf("accepted job does not survive the WAL round trip: %v\ncanonical: %s", err, job.Canonical)
		}
		if !bytes.Equal(re.Canonical, job.Canonical) {
			t.Fatalf("canonical bytes not a fixed point:\n%s\nvs\n%s", job.Canonical, re.Canonical)
		}
	})
}
