package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lotterybus/internal/cache"
	"lotterybus/internal/obs"
	"lotterybus/internal/prng"
	"lotterybus/internal/serve"
	"lotterybus/internal/simcfg"
)

// client is one closed-loop load generator with one keep-alive
// connection to the job server.
type client struct {
	name string
	url  string
	hc   *http.Client
}

func newClient(name, url string) *client {
	return &client{name: name, url: url, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// jobOut is what a job's stream reported for each replica.
type jobOut struct {
	fps, sources []string
}

func (o *jobOut) set(replica int, fp, source string) {
	for len(o.fps) <= replica {
		o.fps = append(o.fps, "")
		o.sources = append(o.sources, "")
	}
	o.fps[replica], o.sources[replica] = fp, source
}

// job submits one request and follows its stream to the terminal event.
// It returns the replicas' results, the time from POST to reading the
// done line, and the job id.
func (c *client) job(body []byte, tr *obs.Trace, parent *obs.Span, track int) (jobOut, time.Duration, string, error) {
	t0 := obs.Now()
	sp := tr.StartTrack("http.submit", parent, track)
	id, err := c.submit(body)
	sp.End()
	if err != nil {
		return jobOut{}, obs.Now().Sub(t0), "", err
	}
	sp = tr.StartTrack("http.stream", parent, track)
	out, doneAt, err := c.follow(id)
	sp.End()
	if err != nil {
		return out, obs.Now().Sub(t0), id, err
	}
	return out, doneAt.Sub(t0), id, nil
}

func (c *client) submit(body []byte) (string, error) {
	resp, err := c.hc.Post(c.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return st.ID, err
}

// follow reads a job's JSONL stream to its end and returns the replica
// results and when the done line was read.
func (c *client) follow(id string) (jobOut, time.Time, error) {
	var out jobOut
	resp, err := c.hc.Get(c.url + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return out, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, time.Time{}, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	var doneAt time.Time
	terminal := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Event       string `json:"event"`
			Replica     int    `json:"replica"`
			Fingerprint string `json:"fingerprint"`
			Source      string `json:"source"`
			Reason      string `json:"reason"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return out, doneAt, fmt.Errorf("stream %s: %w", id, err)
		}
		switch ev.Event {
		case "replica_done":
			out.set(ev.Replica, ev.Fingerprint, ev.Source)
		case "done":
			doneAt, terminal = obs.Now(), ev.Event
		case "failed", "canceled", "interrupted":
			terminal = ev.Event + ": " + ev.Reason
		}
	}
	if err := sc.Err(); err != nil {
		return out, doneAt, fmt.Errorf("stream %s: %w", id, err)
	}
	if terminal != "done" {
		return out, doneAt, fmt.Errorf("job %s ended %q, not done", id, terminal)
	}
	return out, doneAt, nil
}

// serverSpan is one event of a job's Chrome trace.
type serverSpan struct {
	Name string `json:"name"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
}

// serverTrace fetches the server's span tree of one job.
func (c *client) serverTrace(id string) ([]serverSpan, error) {
	resp, err := c.hc.Get(c.url + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: %s", id, resp.Status)
	}
	var ct struct {
		TraceEvents []serverSpan `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ct); err != nil {
		return nil, fmt.Errorf("trace %s: %w", id, err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return ct.TraceEvents, err
}

// serverSpanNames are the server stages a traced serve run reports, in
// job order.
var serverSpanNames = []string{
	"admit", "wal_accept", "queue_wait", "lottery_draw", "cache_probe",
	"simulate", "snapshot_publish", "wal_end", "stream_flush",
}

// warmOrderLen is how many resubmissions serve-warm's order holds before
// it repeats: far more than a timed phase completes.
const warmOrderLen = 1 << 16

// serveBench drives an in-process job server over loopback HTTP: two
// closed-loop clients, "a" and "b", hold 2:1 admission tickets, and one
// operation is one job of the sample system.
type serveBench struct {
	label    string
	warm     bool
	cfg      simcfg.SimConfig // job configuration; Seed is set per job
	replicas int
	base     uint64 // job k runs seeds base+k*replicas onwards
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	dir      string
	clients  []*client
	order    []int       // serve-warm: op i resubmits working-set job order[i%len(order)]
	bodies   [][][]byte  // serve-warm: bodies[client][k] for working-set job k
	setOuts  []jobOut    // serve-warm: the working set as the fill computed it
	cacheAt  cache.Stats // cache counters when the timed phase began

	mu      sync.Mutex
	outs    map[int]jobOut
	spanUS  map[string]int64 // traced jobs: server span time per stage
	unaccUS int64            // traced jobs: client latency no server span covers
}

func setupServe(e *env, warm bool) (*instance, error) {
	label := "serve-cold"
	if warm {
		label = "serve-warm"
	}
	s := &serveBench{
		label: label, warm: warm, cfg: *simcfg.SampleConfig(), replicas: e.sz.jobReplicas,
		base: positiveSeed(e.seed, label), outs: map[int]jobOut{}, spanUS: map[string]int64{},
	}
	s.cfg.Cycles = e.sz.jobCycles
	if err := s.start(e); err != nil {
		s.close()
		return nil, err
	}
	var err error
	maxOps := 0
	if warm {
		s.setOuts, s.bodies, err = s.runSet(s.base, e.sz.warmSet)
		s.order = warmOrder(e.seed, label, e.sz.warmSet)
	} else {
		// Jobs on seeds the timed phase never uses open the connections,
		// the WAL and the cache directory.
		_, _, err = s.runSet(positiveSeed(e.seed, label+"/warmup"), e.sz.warmupJobs)
		maxOps = e.sz.coldJobs
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.cacheAt = s.srv.Cache().Stats()
	return &instance{
		clients: len(s.clients),
		minOps:  e.sz.minJobs,
		maxOps:  maxOps,
		opSpan:  "serve.job",
		op:      s.op,
		check:   s.check,
		report:  s.report,
		close:   s.close,
	}, nil
}

// start brings the server up with its cache and WAL in a fresh directory
// (so fsync is on) behind a loopback listener.
func (s *serveBench) start(e *env) error {
	dir, err := os.MkdirTemp(e.tmp, s.label+"-")
	if err != nil {
		return err
	}
	s.dir = dir
	s.srv, err = serve.New(serve.Options{
		CacheDir:       filepath.Join(dir, "cache"),
		DataDir:        filepath.Join(dir, "wal"),
		Jobs:           parallel,
		ReplicaWorkers: parallel,
		Tickets:        map[string]uint64{"a": 2, "b": 1},
		AdmissionSeed:  positiveSeed(e.seed, s.label+"/admission"),
	})
	if err != nil {
		return err
	}
	s.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	s.clients = []*client{newClient("a", url), newClient("b", url)}
	return nil
}

// close stops the listener, drains the server and removes its files.
func (s *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, c := range s.clients {
		c.hc.CloseIdleConnections()
	}
	if s.hs != nil {
		s.hs.Shutdown(ctx)
		<-s.served
	}
	if s.srv != nil {
		s.srv.Drain(ctx)
	}
	os.RemoveAll(s.dir)
}

// seedOf returns the first replica seed of job k.
func (s *serveBench) seedOf(k int) uint64 { return s.base + uint64(k*s.replicas) }

// body marshals a job request for client w at the given seed.
func (s *serveBench) body(w int, seed uint64) ([]byte, error) {
	c := s.cfg
	c.Seed = seed
	cfg, err := json.Marshal(&c)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.JobRequest{Client: s.clients[w].name, Replicate: s.replicas, Config: cfg})
}

// runSet runs the n jobs whose job k starts at seed base+k*replicas
// through both clients. It returns each job's outcome and, per client,
// the request bodies.
func (s *serveBench) runSet(base uint64, n int) ([]jobOut, [][][]byte, error) {
	bodies := make([][][]byte, len(s.clients))
	for w := range s.clients {
		for k := 0; k < n; k++ {
			b, err := s.body(w, base+uint64(k*s.replicas))
			if err != nil {
				return nil, nil, err
			}
			bodies[w] = append(bodies[w], b)
		}
	}
	outs := make([]jobOut, n)
	errs := make([]error, len(s.clients))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w, c := range s.clients {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				out, _, _, err := c.job(bodies[w][k], nil, nil, 0)
				if err != nil {
					errs[w] = err
					return
				}
				outs[k] = out
			}
		}(w, c)
	}
	wg.Wait()
	return outs, bodies, errors.Join(errs...)
}

// warmOrder draws serve-warm's resubmission order: successive
// seed-permuted passes over the n working-set jobs.
func warmOrder(seed uint64, label string, n int) []int {
	src := prng.NewXorShift64Star(prng.Derive(seed, label+"/order"))
	order := make([]int, 0, warmOrderLen)
	perm := make([]int, n)
	for len(order) < warmOrderLen {
		for k := range perm {
			perm[k] = k
		}
		prng.Shuffle(src, perm)
		order = append(order, perm...)
	}
	return order
}

func (s *serveBench) op(w, i int, tr *obs.Trace, parent *obs.Span) (time.Duration, error) {
	c := s.clients[w]
	var body []byte
	if s.warm {
		body = s.bodies[w][s.order[i%len(s.order)]]
	} else {
		b, err := s.body(w, s.seedOf(i))
		if err != nil {
			return 0, err
		}
		body = b
	}
	out, lat, id, err := c.job(body, tr, parent, w+1)
	if err != nil {
		return lat, err
	}
	s.mu.Lock()
	s.outs[i] = out
	s.mu.Unlock()
	if tr != nil {
		return lat, s.traceJob(c, id, lat)
	}
	return lat, nil
}

// traceJob folds one traced job's server spans into the per-stage totals
// and charges the client latency they do not cover to unaccounted time.
func (s *serveBench) traceJob(c *client, id string, lat time.Duration) error {
	spans, err := c.serverTrace(id)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("job %s: empty server trace", id)
	}
	ivs := make([][2]int64, len(spans))
	lo, hi := spans[0].TS, spans[0].TS
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, sp := range spans {
		s.spanUS[sp.Name] += sp.Dur
		ivs[k] = [2]int64{sp.TS, sp.TS + sp.Dur}
		lo, hi = min(lo, sp.TS), max(hi, sp.TS+sp.Dur)
	}
	s.unaccUS += lat.Microseconds() - covered(lo, hi, ivs)
	return nil
}

// report prints the server stages of the traced jobs and the cache hit
// ratio of the timed phase.
func (s *serveBench) report(w io.Writer, traced int) {
	if traced > 0 {
		for _, name := range serverSpanNames {
			fmt.Fprintf(w, "%s: serve.%s_us %.1f us (count %d jobs; mean per job, summed over replicas)\n",
				s.label, name, float64(s.spanUS[name])/float64(traced), traced)
		}
		fmt.Fprintf(w, "%s: serve.unaccounted_us %.1f us (count %d jobs; client latency minus server span coverage)\n",
			s.label, float64(s.unaccUS)/float64(traced), traced)
	}
	now := s.srv.Cache().Stats()
	hits, misses := now.Hits()-s.cacheAt.Hits(), now.Misses-s.cacheAt.Misses
	if hits+misses > 0 {
		fmt.Fprintf(w, "%s: cache.hit_ratio %.4f (count %d lookups)\n", s.label, float64(hits)/float64(hits+misses), hits+misses)
	}
}

// check compares every job's replica fingerprints with a direct
// in-process run and requires cold jobs to be computed and warm jobs to
// be cache hits.
func (s *serveBench) check(n int) (string, []int, error) {
	r := s.replicas
	var (
		want []string
		err  error
		bad  []int
	)
	if s.warm {
		want, err = directFingerprints(s.cfg, s.base, len(s.setOuts)*r)
		if err != nil {
			return "", nil, err
		}
		for k, out := range s.setOuts {
			if !sameJob(out, want[k*r:(k+1)*r], "computed") {
				return "", nil, fmt.Errorf("working-set job %d: fingerprints %v (sources %v), direct run %v",
					k, out.fps, out.sources, want[k*r:(k+1)*r])
			}
		}
	} else {
		if want, err = directFingerprints(s.cfg, s.base, n*r); err != nil {
			return "", nil, err
		}
	}
	for i := 0; i < n; i++ {
		out, ok := s.outs[i]
		if !ok {
			continue // the operation itself failed and is counted already
		}
		k, source := i, "computed"
		if s.warm {
			k, source = s.order[i%len(s.order)], "memory"
		}
		if !sameJob(out, want[k*r:(k+1)*r], source) {
			bad = append(bad, i)
		}
	}
	pinnedJobs := min(len(want)/r, fullSizes.warmSet)
	return digestOf([]byte(strings.Join(want[:pinnedJobs*r], "\n"))), bad, nil
}

// sameJob reports whether a job returned exactly the wanted fingerprints,
// every replica from the given source.
func sameJob(out jobOut, want []string, source string) bool {
	if len(out.fps) != len(want) {
		return false
	}
	for k := range want {
		if out.fps[k] != want[k] || out.sources[k] != source {
			return false
		}
	}
	return true
}

// directFingerprints runs seeds seed0 .. seed0+n-1 of cfg in-process on
// the lane engine, which is bit-identical per lane to the scalar engine
// the server runs, 64 lanes at a time.
func directFingerprints(cfg simcfg.SimConfig, seed0 uint64, n int) ([]string, error) {
	out := make([]string, 0, n)
	for lo := 0; lo < n; lo += 64 {
		k := min(64, n-lo)
		c := cfg
		c.Seed = seed0 + uint64(lo)
		rs, err := c.BuildReplicaSet(k)
		if err != nil {
			return nil, err
		}
		rs.SetParallel(parallel)
		if err := rs.Run(c.Cycles); err != nil {
			return nil, err
		}
		for l := 0; l < k; l++ {
			out = append(out, fmt.Sprintf("%016x", rs.Collector(l).Fingerprint()))
		}
	}
	return out, nil
}
