package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lotterybus/internal/obs"
)

// tinySizes run every workload in well under a second.
var tinySizes = sizes{
	figsCycles:  10_000, // the adaptation section needs 2048 cycles after warmupDiv
	replicas:    4,
	repCycles:   20_000,
	cmpCycles:   2000,
	chainCycles: 2000,
	jobCycles:   2000,
	jobReplicas: 2,
	warmSet:     4,
	warmupDiv:   4,
	minPasses:   2,
	minJobs:     8,
	warmupJobs:  2,
	coldJobs:    10,
	setups:      2,
	ladderDiv:   1 << 12,
}

var endToEndNames = []string{"setup_s", "job_p50_ms", "job_p99_ms", "jobs_per_s", "peak_rss_mb"}

// runTiny runs one workload at tiny sizes with no time budget, so the
// timed phase runs exactly its minimum operation count (plus at most one
// per extra client).
func runTiny(t *testing.T, name string, traceFile string, pins map[string]string) (*result, string) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	w, ok := lookup(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	var out bytes.Buffer
	res, err := runWorkload(&out, w, &env{sz: tinySizes, seed: 1, pins: pins}, traceFile)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	return res, out.String()
}

// lastLine decodes the result line, which must be the output's last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return r
}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, out := runTiny(t, w.name, "", nil)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("run not correct:\n%s", out)
			}
			min := tinySizes.minPasses
			if strings.HasPrefix(w.name, "serve") {
				min = tinySizes.minJobs
			}
			if res.Attempted < min {
				t.Errorf("attempted %d operations, want at least %d", res.Attempted, min)
			}
			got := lastLine(t, out)
			if len(got.Metrics) != len(endToEndNames) {
				t.Errorf("metrics %v, want exactly %v", got.Metrics, endToEndNames)
			}
			for _, m := range endToEndNames {
				if v, ok := got.Metrics[m]; !ok || v.Value <= 0 || v.Unit == "" {
					t.Errorf("metric %s = %+v, want a positive value with a unit", m, v)
				}
			}
			if !strings.HasPrefix(out, "# lotterybench workload="+w.name+" seed=1 ") || !strings.Contains(out, " GOMAXPROCS=") {
				t.Errorf("missing header line:\n%s", out)
			}
		})
	}
}

// TestTracedRun checks that a traced run reports the whole layer ladder
// and the tracing overhead, and writes Chrome trace JSON.
func TestTracedRun(t *testing.T) {
	file := filepath.Join(t.TempDir(), "trace.json")
	res, out := runTiny(t, "serve-warm", file, nil)
	if !res.Correct {
		t.Fatalf("traced run not correct:\n%s", out)
	}
	want := []string{
		"bench.trace_overhead_ratio",
		"prng.next_ns", "core.static_draw_ns", "core.dynamic_draw_ns",
		"bus.saturated_ns_per_cycle", "bus.busy_ns_per_cycle", "bus.lowload_ns_per_cycle",
		"bus.idle_ns_per_cycle", "bus.ff_cycle_ratio", "bus.scalar_ns_per_cycle",
		"lanes.one_lane_ns_per_cycle", "lanes.ns_per_lane_cycle", "simcfg.build_replicaset_ms",
		"topology.lockstep_ns_per_cycle", "topology.port_run_ns_per_cycle", "topology.chain_ns_per_cycle",
		"check.audit_ms", "serve.parse_job_us", "simcfg.canonical_us", "simcfg.build_us",
		"lotterybus.report_us", "stats.encode_us", "stats.decode_us",
		"cache.memory_hit_us", "cache.put_us", "cache.disk_hit_us",
	}
	got := lastLine(t, out)
	if len(got.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(got.Metrics), len(want))
	}
	for _, m := range want {
		if _, ok := got.Metrics[m]; !ok {
			t.Errorf("missing per-layer metric %s", m)
		}
	}
	for _, line := range []string{"serve.queue_wait_us", "serve.unaccounted_us", "http.submit_ms", "cache.hit_ratio 1.0000"} {
		if !strings.Contains(out, line) {
			t.Errorf("output lacks %q:\n%s", line, out)
		}
	}
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &ct); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want complete events", ev.Name, ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, n := range []string{"serve.job", "http.submit", "http.stream", "ladder", "prng.next_ns"} {
		if !names[n] {
			t.Errorf("trace has no %q span", n)
		}
	}
}

// TestDigestMismatchFails pins a wrong digest and requires the run to
// come out incorrect.
func TestDigestMismatchFails(t *testing.T) {
	res, out := runTiny(t, "fabric", "", map[string]string{"fabric": "0000000000000000"})
	if res.Correct {
		t.Fatalf("run with a mismatching pinned digest reported correct:\n%s", out)
	}
	if !strings.Contains(out, "differs from the pinned") {
		t.Errorf("mismatch not reported:\n%s", out)
	}
	if lastLine(t, out).Correct {
		t.Error("result line says correct")
	}
}

func TestCheckPinned(t *testing.T) {
	if err := checkPinned(nil, "figs", "abc"); err != nil {
		t.Errorf("no pins: %v", err)
	}
	pins := map[string]string{"figs": "abc"}
	if err := checkPinned(pins, "figs", "abc"); err != nil {
		t.Errorf("matching digest: %v", err)
	}
	if checkPinned(pins, "figs", "abd") == nil {
		t.Error("mismatching digest accepted")
	}
	if checkPinned(pins, "fabric", "abc") == nil {
		t.Error("unpinned workload accepted")
	}
}

// TestPinnedDigestsComplete requires testdata/digests.json to pin every
// workload.
func TestPinnedDigestsComplete(t *testing.T) {
	for _, w := range workloads {
		if d := pinned.Digests[w.name]; len(d) != 16 {
			t.Errorf("workload %s: pinned digest %q, want 16 hex digits", w.name, d)
		}
	}
}

func TestPercentiles(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helpers must sort
		}
		return xs
	}
	for _, c := range []struct {
		n, p, rank, beyond int
	}{
		{1000, 99, 990, 10}, // the smallest run whose p99 has 10 samples beyond
		{999, 99, 990, 9},
		{100, 99, 99, 1},
		{3, 99, 3, 0},
		{4, 50, 2, 2},
		{1, 50, 1, 0},
	} {
		if got := rank(c.n, c.p); got != c.rank {
			t.Errorf("rank(%d, %d) = %d, want %d", c.n, c.p, got, c.rank)
		}
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, %d) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := percentile(seq(c.n), c.p); got != float64(c.rank) {
			t.Errorf("percentile(1..%d, %d) = %g, want %d", c.n, c.p, got, c.rank)
		}
	}
	if got := median(seq(4)); got != 2.5 {
		t.Errorf("median(1..4) = %g, want 2.5", got)
	}
	if got := median(seq(5)); got != 3 {
		t.Errorf("median(1..5) = %g, want 3", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// and statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75];
	// with two samples the exclusive method extrapolates: [0.75, 1.5, 2.25].
	for _, c := range []struct {
		n      int
		q1, q3 float64
	}{{10, 2.75, 8.25}, {4, 1.25, 3.75}, {2, 0.75, 2.25}, {1, 1, 1}} {
		if q1, q3 := quartiles(seq(c.n)); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(1..%d) = %g, %g, want %g, %g", c.n, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTime(t *testing.T) {
	if got := covered(0, 100, [][2]int64{{50, 70}, {10, 30}, {20, 40}, {90, 120}}); got != 60 {
		t.Errorf("covered = %d, want 60", got)
	}
	spans := []obs.SpanInfo{
		{ID: 1, Name: "op", StartUS: 0, DurUS: 100},
		{ID: 2, Parent: 1, Name: "a", StartUS: 10, DurUS: 30},
		{ID: 3, Parent: 1, Name: "a", StartUS: 20, DurUS: 30},
		{ID: 4, Parent: 2, Name: "b", StartUS: 15, DurUS: 5},
	}
	want := map[string]spanStat{
		"op": {name: "op", count: 1, totalUS: 100, selfUS: 60},
		"a":  {name: "a", count: 2, totalUS: 60, selfUS: 55},
		"b":  {name: "b", count: 1, totalUS: 5, selfUS: 5},
	}
	for _, st := range spanStats(spans) {
		if st != want[st.name] {
			t.Errorf("%+v, want %+v", st, want[st.name])
		}
	}
}
