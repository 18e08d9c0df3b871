// Command lotterysim runs a JSON-configured shared-bus simulation and
// prints per-master bandwidth and latency statistics.
//
// Usage:
//
//	lotterysim -config system.json
//	lotterysim -sample > system.json   # print a starter configuration
//	lotterysim < system.json           # read the configuration from stdin
//	lotterysim -config system.json -replicate 8 -parallel 4
//	lotterysim -config system.json -journal run.jsonl
//	lotterysim -config system.json -replicate 16 -listen :8080
//	lotterysim -config system.json -cpuprofile cpu.pb.gz
//	lotterysim -config system.json -replicate 8 -check
//
// Every configuration simulates, including one the regime classifier
// (internal/analytic) proves idle or saturated: its closed forms are
// checks on the simulator, never a substitute for a run.
//
// With -check, every finished replica is audited against the simulator's
// conservation and accounting invariants (internal/check); violations
// print to stderr, are journaled, and make the process exit 1.
//
// With -deadline DURATION, the whole run gets a wall-clock budget: on
// expiry the simulation stops at the next chunk boundary, unfinished
// replicas never reach the result cache, a deadline_exceeded event is
// journaled, and the process exits 3 (distinct from failure's 1).
//
// With -journal FILE, structured JSONL events are appended to FILE:
// run_start with the full effective configuration and seed provenance,
// one replica_end per finished replica (including its resilience
// counters when faults fired), and run_end with aggregate totals.
//
// With -listen ADDR, a telemetry endpoint serves the run live:
// GET /metrics is Prometheus text exposition (per-master counters and
// latency histograms, sweep progress and ETA gauges) and
// GET /debug/vars is the same registry as a JSON snapshot. The process
// keeps serving after the simulation completes until interrupted, so
// scrapes never race a short run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"lotterybus"
	"lotterybus/internal/cache"
	"lotterybus/internal/obs"
	"lotterybus/internal/prof"
	"lotterybus/internal/runner"
	"lotterybus/internal/simcfg"
	"lotterybus/internal/stats"
)

func main() {
	os.Exit(realMain())
}

// fail prints err and returns the process exit code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "lotterysim:", err)
	return 1
}

// realMain runs the tool and returns its exit code, so deferred cleanup
// (profile flushing, file closing) runs before the process exits.
func realMain() (code int) {
	path := flag.String("config", "", "path to a JSON system configuration (default: stdin)")
	sample := flag.Bool("sample", false, "print a sample configuration and exit")
	vcdPath := flag.String("vcd", "", "write a VCD waveform of the run to this path")
	waveform := flag.Int("waveform", 0, "print an ASCII waveform of the first N cycles")
	replicate := flag.Int("replicate", 1, "run N seed-replicas of the configuration (seed, seed+1, ...)")
	parallel := flag.Int("parallel", 0,
		"replica workers (0 = $"+runner.EnvVar+" then GOMAXPROCS, 1 = serial)")
	audit := flag.Bool("check", false, "audit conservation/accounting invariants after each replica; any violation exits 1")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory: replicas whose (canonical config, seed) digest is already stored replay from the cache instead of simulating")
	noCache := flag.Bool("no-cache", false, "ignore -cache-dir and always simulate (the cache A/B switch)")
	journalPath := flag.String("journal", "", "append structured JSONL run events to this file")
	deadline := flag.Duration("deadline", 0, "wall-clock limit for the whole run; on expiry simulation stops at the next chunk boundary, partial results stay out of the cache, a deadline_exceeded event is journaled, and the exit code is 3")
	listen := flag.String("listen", "", "serve live telemetry on this address (/metrics Prometheus text, /debug/vars JSON); keeps serving after the run until interrupted")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	debug := flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/ on the -listen endpoint")
	flag.Parse()
	if *replicate < 0 {
		fmt.Fprintf(os.Stderr, "lotterysim: -replicate %d: need at least one replica (0 means 1)\n", *replicate)
		return 2
	}

	if *sample {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(simcfg.SampleConfig()); err != nil {
			return fail(err)
		}
		return 0
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil && code == 0 {
			code = fail(err)
		}
	}()

	in := os.Stdin
	if *path != "" {
		f, err := os.Open(*path)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		in = f
	}
	cfg, err := simcfg.ParseConfig(in)
	if err != nil {
		return fail(err)
	}

	// -vcd and -waveform hook every cycle of one run.
	n := max(*replicate, 1)
	tracing := *vcdPath != "" || *waveform > 0
	if tracing && n > 1 {
		fmt.Fprintln(os.Stderr, "lotterysim: -vcd and -waveform require -replicate 1")
		return 1
	}
	if err := cfg.CheckReplicas(n); err != nil {
		return fail(err)
	}

	var j *obs.Journal
	if *journalPath != "" {
		f, err := os.OpenFile(*journalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		j = obs.NewJournal(f)
	}

	reg := obs.NewRegistry()
	prog := obs.NewProgress(*replicate)
	var srv *obs.Server
	if *listen != "" {
		srv, err = obs.ServeWith(*listen, obs.ServeConfig{Registry: reg, Progress: prog, Debug: *debug})
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "lotterysim: telemetry on http://%s (/metrics, /debug/vars)\n", srv.Addr())
	}

	// The run_start event carries the canonical effective configuration
	// — every default materialized, every ignored field zeroed — so a
	// journal line is reproducible on its own and two journals of
	// equivalent configs compare equal. The same bytes feed the result
	// cache keys below.
	canonical, err := cfg.Canonical()
	if err != nil {
		return fail(err)
	}
	j.Emit("run_start", map[string]any{
		"tool": "lotterysim", "config": json.RawMessage(canonical),
		"replicate": *replicate, "parallel": runner.Workers(*parallel),
	})

	var resultCache *cache.Cache
	if *cacheDir != "" && !*noCache {
		resultCache = cache.New(*cacheDir)
	}

	// The run context carries the -deadline budget. With no deadline the
	// context has no Done channel and RunContext degenerates to Run —
	// the hot loop is untouched (see System.RunContext).
	runCtx := context.Background()
	if *deadline > 0 {
		var cancelRun context.CancelFunc
		runCtx, cancelRun = context.WithTimeout(runCtx, *deadline)
		defer cancelRun()
	}

	reps, err := cfg.BuildReplicas(n)
	if err != nil {
		return fail(err)
	}

	// Replica i is the configuration at seed+i. Probe the cache for
	// every replica, then simulate the misses. Tracing and -check observe
	// a live run, so they force a simulation; the result is still
	// published, so even they warm the cache. A replica's collector is
	// reduced to its report and metrics as soon as it resolves, so memory
	// does not grow with the collectors of every replica.
	keys := make([]cache.Key, n)
	srcs := make([]cache.Source, n)
	reports := make([]lotterybus.Report, n)
	viols := make([][]string, n)
	resolve := func(i int, col *stats.Collector) {
		reports[i] = reps.Report(col)
		reps.RecordObs(col, reg, obs.Labels{"replica": strconv.Itoa(i)})
		prog.Step()
	}
	var traced *lotterybus.System
	var miss []int
	for i := range n {
		if resultCache != nil { // without a cache the key is unused
			if keys[i], err = reps.Key(i); err != nil {
				return fail(err)
			}
		}
		var col *stats.Collector
		if !tracing && !*audit {
			col, srcs[i], _ = resultCache.Get(keys[i]) // nil-safe miss without a cache
		}
		if col == nil {
			miss = append(miss, i)
		} else {
			resolve(i, col)
		}
	}
	err = reps.Simulate(runCtx, miss, *parallel, func(sim *simcfg.Sim) error {
		if tracing {
			traced = sim.System
			traced.EnableTrace(0)
		}
		if err := sim.Run(nil); err != nil {
			return err
		}
		i, col := sim.Replica, sim.System.Collector()
		if *audit {
			viols[i] = sim.System.CheckInvariants()
		}
		resultCache.Put(keys[i], col) // nil-safe no-op without a cache
		resolve(i, col)
		return nil
	})
	if err != nil {
		if code, hit := deadlineExit(j, *deadline, err); hit {
			return code
		}
		return fail(err)
	}

	// Print in replica order whatever the worker count.
	for i, rep := range reports {
		seed := cfg.Seed + uint64(i)
		if srcs[i] != cache.SourceComputed {
			j.Emit("cache_hit", map[string]any{
				"replica": i, "key": keys[i].String(), "source": srcs[i].String(),
			})
		}
		emitReplica(j, i, seed, rep)
		if n > 1 {
			fmt.Printf("==== replica %d (seed %d) ====\n%s\n", i, seed, rep)
		} else {
			fmt.Println(rep)
		}
		code = reportViolations(j, i, viols[i], code)
	}
	if *waveform > 0 {
		fmt.Println()
		fmt.Print(traced.Waveform(0, *waveform))
	}
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := traced.WriteVCD(f); err != nil {
			return fail(err)
		}
		fmt.Printf("\nVCD written to %s\n", *vcdPath)
	}
	emitRunEnd(j, reports)
	return finishRun(resultCache, reg, srv, code)
}

// deadlineExit handles a run error caused by the -deadline budget:
// journal the partial run and exit 3 so scripts can tell "ran out of
// time" from "failed". Partial results were never Put, so the cache
// holds only complete replicas. Any other error is not ours to handle.
func deadlineExit(j *obs.Journal, d time.Duration, err error) (int, bool) {
	if !errors.Is(err, context.DeadlineExceeded) {
		return 0, false
	}
	j.Emit("deadline_exceeded", map[string]any{"deadline": d.String()})
	fmt.Fprintf(os.Stderr, "lotterysim: wall-clock deadline %s exceeded; partial run, nothing cached for unfinished replicas\n", d)
	return 3, true
}

// finishRun records the cache outcome in the registry and on stderr,
// then hands off to the telemetry server's interrupt wait.
func finishRun(rc *cache.Cache, reg *obs.Registry, srv *obs.Server, code int) int {
	if rc != nil {
		s := rc.Stats()
		obs.RecordCacheStats(reg, obs.Labels{"tool": "lotterysim"}, s)
		fmt.Fprintf(os.Stderr,
			"lotterysim: cache: %d hits (%d memory, %d disk), %d misses, %d evicted, %d B read, %d B written\n",
			s.Hits(), s.MemoryHits, s.DiskHits, s.Misses, s.Evictions, s.BytesRead, s.BytesWritten)
	}
	return serveUntilInterrupt(srv, code)
}

// reportViolations prints one replica's invariant violations to stderr,
// journals them, and escalates the exit code when any were found.
func reportViolations(j *obs.Journal, replica int, viol []string, code int) int {
	if len(viol) == 0 {
		return code
	}
	for _, v := range viol {
		fmt.Fprintf(os.Stderr, "lotterysim: replica %d invariant violation: %s\n", replica, v)
	}
	j.Emit("invariant_violations", map[string]any{
		"replica": replica, "count": len(viol), "violations": viol,
	})
	if code == 0 {
		code = 1
	}
	return code
}

// emitReplica journals one finished replica; resilience counters join
// the event only when the run recorded fault or starvation activity.
func emitReplica(j *obs.Journal, i int, seed uint64, rep lotterybus.Report) {
	fields := map[string]any{
		"replica": i, "seed": seed, "cycles": rep.Cycles,
		"utilization": rep.Utilization,
	}
	var retries, aborts, timeouts, starved int64
	for _, m := range rep.Masters {
		retries += m.Retries
		aborts += m.Aborts
		timeouts += m.SplitTimeouts
		starved += m.StarvedCycles
	}
	if retries|aborts|timeouts|starved != 0 {
		fields["retries"] = retries
		fields["aborts"] = aborts
		fields["splitTimeouts"] = timeouts
		fields["starvedCycles"] = starved
	}
	j.Emit("replica_end", fields)
}

// emitRunEnd journals the aggregate outcome of all replicas.
func emitRunEnd(j *obs.Journal, reports []lotterybus.Report) {
	var cycles, messages, words, dropped int64
	for _, rep := range reports {
		cycles += rep.Cycles
		for _, m := range rep.Masters {
			messages += m.Messages
			words += m.Words
			dropped += m.Dropped
		}
	}
	j.Emit("run_end", map[string]any{
		"replicas": len(reports), "cycles": cycles,
		"messages": messages, "words": words, "dropped": dropped,
	})
}

// serveUntilInterrupt blocks until SIGINT/SIGTERM when a telemetry
// server is up, so scrapes of a short run never race process exit; with
// no server it returns immediately.
func serveUntilInterrupt(srv *obs.Server, code int) int {
	if srv == nil {
		return code
	}
	fmt.Fprintln(os.Stderr, "lotterysim: run complete; telemetry still serving, interrupt to exit")
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	return code
}
