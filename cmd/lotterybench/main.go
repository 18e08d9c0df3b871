// Command lotterybench is the repository's benchmark. It runs one of five
// seeded workloads in a process of its own, times the workload's
// operations for a fixed wall-clock budget, checks every output, and
// prints one JSON result line last:
//
//	lotterybench [-workload figs|replicate|fabric|serve-cold|serve-warm|all]
//	             [-seed S] [-seconds N] [-trace 0|1|FILE]
//
// Run it with `go run .` from this directory, or with
// `bash cmd/lotterybench/run.sh` and the same flags from the repository
// root. -workload all re-executes the binary once per workload, so memory
// and GC state never carry over from one workload to the next.
//
// With -trace 0 (the default) no trace is allocated and the result
// carries the end-to-end metrics. With -trace 1 or -trace FILE the run
// alternates traced and untraced operations, wraps every call the
// benchmark makes in an obs.Trace span named after the layer it enters,
// measures the layer ladder by direct calls, and writes the spans as
// Chrome trace JSON (to FILE, or for -trace 1 to
// lotterybench-<workload>.trace.json in the temp directory); the result
// then carries the per-layer metrics. README.md explains every workload
// and metric.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lotterybus/internal/obs"
)

// parallel is the fixed worker count: sweep workers, lane workers, the
// server's job and replica workers, and the load-generating clients. It
// is nproc on the 2-core reference host; the header records both.
const parallel = 2

// defaultSeconds is the timed phase's wall-clock budget.
const defaultSeconds = 20

// sizes fixes the work behind every operation. They are constants of the
// benchmark, not flags; tests shrink them to run each workload quickly.
type sizes struct {
	figsCycles  int64 // simulated cycles per figs sweep point
	replicas    int   // replicate: lanes per pass
	repCycles   int64 // replicate: cycles per lane
	cmpCycles   int64 // fabric: cmp64 cycles per pass
	chainCycles int64 // fabric: bridged-chain cycles per pass
	jobCycles   int64 // serve: cycles per job replica
	jobReplicas int   // serve: replicas per job
	warmSet     int   // serve-warm: distinct jobs in the working set
	warmupJobs  int   // serve-cold: jobs its set-up runs on seeds never timed
	coldJobs    int   // serve-cold: jobs after which the timed phase stops
	warmupDiv   int64 // pass workloads' set-up runs one pass at 1/warmupDiv of its cycles
	minPasses   int   // pass workloads run at least this many passes
	minJobs     int   // serve workloads run at least this many jobs
	setups      int   // set-up repetitions behind setup_s
	ladderDiv   int64 // divides every layer-ladder probe count
}

// fullSizes keep each workload's timed phase within the 20 s budget on
// the reference host while giving serve runs the 1,000 jobs p99 needs.
// serve-cold stops at 2,000 jobs, which the reference host completes in
// 11 to 17 s, because its server keeps every distinct result in memory:
// a fixed job count keeps its peak RSS from tracking throughput.
var fullSizes = sizes{
	figsCycles:  400_000,
	replicas:    32,
	repCycles:   4_000_000,
	cmpCycles:   1_000_000,
	chainCycles: 250_000,
	jobCycles:   100_000,
	jobReplicas: 2,
	warmSet:     64,
	warmupJobs:  16,
	coldJobs:    2000,
	warmupDiv:   20,
	minPasses:   3,
	minJobs:     1000,
	setups:      5,
	ladderDiv:   1,
}

// env is what every workload is built from.
type env struct {
	sz      sizes
	seed    uint64
	seconds float64
	pins    map[string]string // digests the run must reproduce; nil pins nothing
	tmp     string            // scratch directory for server state, removed at exit
}

// workload is one named traffic mix of the benchmark.
type workload struct {
	name  string
	setup func(e *env) (*instance, error)
}

// workloads lists the benchmark's workloads in run order.
var workloads = []workload{
	{"figs", setupFigs},
	{"replicate", setupReplicate},
	{"fabric", setupFabric},
	{"serve-cold", func(e *env) (*instance, error) { return setupServe(e, false) }},
	{"serve-warm", func(e *env) (*instance, error) { return setupServe(e, true) }},
}

// instance is a set-up workload, ready for its timed phase.
type instance struct {
	// clients is the number of closed-loop workers issuing operations.
	clients int
	// minOps is the least number of operations the timed phase runs,
	// however long they take; maxOps, when positive, the most.
	minOps, maxOps int
	// opSpan names the span around one traced operation.
	opSpan string
	// op performs operation i on worker w and returns its latency. tr and
	// parent are nil unless the operation is traced.
	op func(w, i int, tr *obs.Trace, parent *obs.Span) (time.Duration, error)
	// check runs untimed after the timed phase over the n operations that
	// ran. It returns the digest pinned for seed 1, the operations whose
	// output is wrong, and any failure not tied to one operation.
	check func(n int) (digest string, bad []int, err error)
	// simCycles is the simulated bus-cycles one operation delivers.
	simCycles int64
	// report prints workload-specific layer numbers in a traced run; nil
	// when the generic span table says everything.
	report func(w io.Writer, n int)
	close  func()
}

// opResult is one timed operation.
type opResult struct {
	i      int
	dur    time.Duration
	traced bool
	err    error
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lotterybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload: figs, replicate, fabric, serve-cold, serve-warm, or all")
	seed := fs.Uint64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Float64("seconds", defaultSeconds, "wall-clock budget of the timed phase")
	traceArg := fs.String("trace", "0", "0: untraced; 1: traced, Chrome JSON into the temp directory; FILE: traced, Chrome JSON into FILE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "all" {
		return runAll(stdout, stderr, *seed, *seconds, *traceArg)
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "lotterybench: unknown workload %q\n", *name)
		return 2
	}
	traceFile := ""
	switch *traceArg {
	case "0", "":
	case "1":
		traceFile = filepath.Join(os.TempDir(), "lotterybench-"+w.name+".trace.json")
	default:
		traceFile = *traceArg
	}
	e := &env{sz: fullSizes, seed: *seed, seconds: *seconds}
	if *seed == pinned.Seed {
		e.pins = pinned.Digests
	}
	res, err := runWorkload(stdout, w, e, traceFile)
	if err != nil {
		fmt.Fprintln(stderr, "lotterybench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runAll re-executes this binary once per workload.
func runAll(stdout, stderr io.Writer, seed uint64, seconds float64, traceArg string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "lotterybench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		t := traceArg
		if t != "0" && t != "1" && t != "" {
			t = strings.TrimSuffix(t, ".json") + "-" + w.name + ".json"
		}
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", t)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "lotterybench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload sets w up (e.sz.setups times, keeping the last instance),
// runs the timed phase, checks the outputs and prints the result.
func runWorkload(stdout io.Writer, w workload, e *env, traceFile string) (*result, error) {
	fmt.Fprintln(stdout, header(w.name, e, traceFile))
	tmp, err := os.MkdirTemp("", "lotterybench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e.tmp = tmp

	var in *instance
	setups := make([]float64, 0, e.sz.setups)
	for k := 0; k < e.sz.setups; k++ {
		if in != nil {
			in.close()
		}
		t0 := obs.Now()
		if in, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, obs.Now().Sub(t0).Seconds())
	}
	defer in.close()

	var tr *obs.Trace
	if traceFile != "" {
		tr = obs.NewTrace("lotterybench/"+w.name, nil, 1<<20)
		in.minOps = max(in.minOps, 2) // one traced and one untraced at least
	}
	ops, wall := timedPhase(e, in, tr)
	rssMB := peakRSSMB()

	digest, bad, checkErr := in.check(len(ops))
	failed := map[int]bool{}
	for _, i := range bad {
		failed[i] = true
	}
	for _, o := range ops {
		if o.err != nil {
			failed[o.i] = true
			fmt.Fprintf(stdout, "%s: op %d failed: %v\n", w.name, o.i, o.err)
		}
	}
	if checkErr != nil {
		fmt.Fprintf(stdout, "%s: output check failed: %v\n", w.name, checkErr)
	}
	if err := checkPinned(e.pins, w.name, digest); err != nil {
		fmt.Fprintf(stdout, "%s: %v\n", w.name, err)
		checkErr = err
	}
	res := &result{
		Correct:   len(failed) == 0 && checkErr == nil,
		Attempted: len(ops),
		Failed:    len(failed),
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(stdout, "%s: %d ops in %.3f s by %d client(s), %d failed (failed_ratio %g), digest %s\n",
		w.name, len(ops), wall.Seconds(), in.clients, res.Failed, float64(res.Failed)/float64(len(ops)), digest)

	if tr == nil {
		endToEnd(stdout, w.name, res, in, ops, wall, setups, rssMB)
	} else {
		if err := traced(stdout, w.name, e, res, in, ops, tr, traceFile); err != nil {
			return nil, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(line))
	return res, nil
}

// timedPhase runs operations from in.clients closed-loop workers until
// the budget is spent (forecasting one more operation at the mean
// latency so far) and at least in.minOps have started, or until
// in.maxOps have. In a traced run every odd operation is traced.
func timedPhase(e *env, in *instance, tr *obs.Trace) ([]opResult, time.Duration) {
	budget := time.Duration(e.seconds * float64(time.Second))
	var (
		mu        sync.Mutex
		res       []opResult
		next      atomic.Int64
		completed atomic.Int64
		spent     atomic.Int64
		wg        sync.WaitGroup
	)
	start := obs.Now()
	for w := 0; w < in.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if int(next.Load()) >= in.minOps {
					var mean time.Duration
					if n := completed.Load(); n > 0 {
						mean = time.Duration(spent.Load() / n)
					}
					if obs.Now().Sub(start)+mean > budget {
						return
					}
				}
				i := int(next.Add(1) - 1)
				if in.maxOps > 0 && i >= in.maxOps {
					return
				}
				var (
					t  *obs.Trace
					sp *obs.Span
				)
				if tr != nil && i%2 == 1 {
					t = tr
					sp = tr.StartTrack(in.opSpan, nil, w+1)
				}
				d, err := in.op(w, i, t, sp)
				sp.End()
				spent.Add(int64(d))
				completed.Add(1)
				mu.Lock()
				res = append(res, opResult{i: i, dur: d, traced: t != nil, err: err})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	wall := obs.Now().Sub(start)
	sort.Slice(res, func(a, b int) bool { return res[a].i < res[b].i })
	return res, wall
}

// latenciesMS returns the latencies of successful operations whose traced
// flag matches, in milliseconds.
func latenciesMS(ops []opResult, traced bool) []float64 {
	var out []float64
	for _, o := range ops {
		if o.err == nil && o.traced == traced {
			out = append(out, float64(o.dur.Nanoseconds())/1e6)
		}
	}
	return out
}

// endToEnd fills the untraced run's metrics and prints them with their
// sample counts.
func endToEnd(w io.Writer, name string, res *result, in *instance, ops []opResult, wall time.Duration, setups []float64, rssMB float64) {
	lat := latenciesMS(ops, false)
	if len(lat) == 0 {
		return // every operation failed; res.Correct is already false
	}
	q1, q3 := quartiles(lat)
	p50 := median(lat)
	// p99 is reported only where at least 10 samples lie beyond it: the
	// serve workloads' thousand-plus jobs. A pass workload's handful of
	// passes has no such percentile, and its slowest pass swings with
	// every burst of host load, so there job_p99_ms falls back to the
	// median.
	p99, tail := p50, "the median: fewer than 10 samples would lie beyond p99"
	if b := beyond(len(lat), 99); b >= 10 {
		p99, tail = percentile(lat, 99), fmt.Sprintf("nearest rank, %d samples beyond", b)
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["job_p50_ms"] = metric{p50, "ms"}
	res.Metrics["job_p99_ms"] = metric{p99, "ms"}
	res.Metrics["jobs_per_s"] = metric{float64(len(lat)) / wall.Seconds(), "1/s"}
	res.Metrics["peak_rss_mb"] = metric{rssMB, "MB"}

	fmt.Fprintf(w, "%s: setup_s %.4f s (median of %d set-ups)\n", name, median(setups), len(setups))
	fmt.Fprintf(w, "%s: job_p50_ms %.3f ms (median of n=%d, quartiles %.3f .. %.3f)\n", name, p50, len(lat), q1, q3)
	fmt.Fprintf(w, "%s: job_p99_ms %.3f ms (n=%d, %s)\n", name, p99, len(lat), tail)
	fmt.Fprintf(w, "%s: jobs_per_s %.3f 1/s\n", name, res.Metrics["jobs_per_s"].Value)
	fmt.Fprintf(w, "%s: peak_rss_mb %.1f MB\n", name, rssMB)
	if in.clients == 1 {
		fmt.Fprintf(w, "%s: pass_s %.4f s (median of n=%d passes)\n", name, p50/1e3, len(lat))
	}
	if in.simCycles > 0 {
		fmt.Fprintf(w, "%s: sim_mcycles_per_s %.2f (%d simulated cycles per op, at the median latency)\n",
			name, float64(in.simCycles)/(p50/1e3)/1e6, in.simCycles)
	}
}

// traced fills the traced run's per-layer metrics: the layer ladder and
// the tracing overhead. It prints the workload's span table and writes
// the Chrome trace.
func traced(w io.Writer, name string, e *env, res *result, in *instance, ops []opResult, tr *obs.Trace, traceFile string) error {
	on, off := latenciesMS(ops, true), latenciesMS(ops, false)
	if len(on) > 0 && len(off) > 0 {
		ratio := median(on) / median(off)
		res.Metrics["bench.trace_overhead_ratio"] = metric{ratio, "ratio"}
		fmt.Fprintf(w, "%s: bench.trace_overhead_ratio %.4f (median traced op %.3f ms over n=%d, untraced %.3f ms over n=%d)\n",
			name, ratio, median(on), len(on), median(off), len(off))
	}
	printSpanTable(w, name, tr.Spans(), in.opSpan)
	if in.report != nil {
		in.report(w, len(on))
	}
	root := tr.Start("ladder", nil)
	lad := &ladder{tr: tr, parent: root, div: e.sz.ladderDiv, seed: e.seed, tmp: e.tmp}
	err := lad.run()
	root.End()
	if err != nil {
		return err
	}
	for _, m := range lad.out {
		res.Metrics[m.name] = metric{m.value, m.unit}
		fmt.Fprintf(w, "%s: %s %.6g %s (count %d)\n", name, m.name, m.value, m.unit, m.count)
	}
	f, err := os.Create(traceFile)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.WriteChrome(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: wrote %d spans to %s\n", name, tr.Len(), traceFile)
	return nil
}

// header describes the host and the run.
func header(name string, e *env, traceFile string) string {
	return fmt.Sprintf("# lotterybench workload=%s seed=%d seconds=%g trace=%t parallel=%d go=%s GOMAXPROCS=%d nproc=%d cpu=%q",
		name, e.seed, e.seconds, traceFile != "", parallel, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB returns the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// pinnedDigests is testdata/digests.json: every workload's output digest
// at one seed, with the full sizes.
type pinnedDigests struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

//go:embed testdata/digests.json
var pinnedJSON []byte

var pinned = mustParsePinned(pinnedJSON)

func mustParsePinned(b []byte) pinnedDigests {
	var p pinnedDigests
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&p); err != nil {
		panic("testdata/digests.json: " + err.Error())
	}
	return p
}

// checkPinned compares a workload's digest with the pinned one; a nil
// pin set (another seed) checks nothing.
func checkPinned(pins map[string]string, name, digest string) error {
	if pins == nil {
		return nil
	}
	want, ok := pins[name]
	if !ok {
		return fmt.Errorf("no digest pinned for this seed")
	}
	if digest != want {
		return fmt.Errorf("digest %s differs from the pinned %s", digest, want)
	}
	return nil
}
