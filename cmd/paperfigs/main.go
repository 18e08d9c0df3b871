// Command paperfigs regenerates every table and figure of the
// LOTTERYBUS paper's evaluation (plus the extension experiments listed
// in DESIGN.md) and prints them as aligned text tables.
//
// Usage:
//
//	paperfigs [-fig all|4|5|6a|6b|12a|12b|12b1|12c|table1|hw|gates|starvation|dynamic|bridge|
//	           slack|pipeline|compensation|burst|models|tail|replay|split|scale|cmp64|adaptation|
//	           wrr|regimes|degradation|babble]
//	          [-cycles N] [-seed S] [-parallel W] [-csv DIR]
//	          [-cache-dir DIR] [-no-cache]
//	          [-journal FILE] [-progress]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// Every section simulates its points. The one exception is the
// "regimes" section, the regime classifier's own exhibit: points it
// proves idle or saturated show their closed forms, labelled as such.
//
// With -cache-dir DIR, the cache-wired sweeps (Figs. 4, 6a, 6b, 12a,
// 12b, 12b1, 12c) resolve each point through a content-addressed result
// cache persisted under DIR: a second invocation with the same cycles
// and seed replays those points from verified snapshots instead of
// simulating, with bit-identical output. -no-cache is the A/B switch.
//
// With -csv DIR, every table and figure is additionally written as an
// RFC-4180 CSV file under DIR for downstream plotting; the latency
// experiments also emit a *_latency.csv with the full distribution
// (p50/p95/p99/max and worst first-grant wait) behind each mean.
//
// With -journal FILE, structured JSONL events (run start/end with the
// effective configuration and seed, one start/end pair per section) are
// appended to FILE. -progress prints a heartbeat line to stderr after
// each section — done/total, elapsed and ETA — driven by the same event
// stream.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"lotterybus/internal/cache"
	"lotterybus/internal/expt"
	"lotterybus/internal/obs"
	"lotterybus/internal/prof"
	"lotterybus/internal/runner"
	"lotterybus/internal/stats"
)

func main() {
	os.Exit(realMain())
}

// realMain runs the tool and returns its exit code, so the deferred
// profile flush runs before the process exits.
func realMain() (code int) {
	fig := flag.String("fig", "all", "which figure/table to regenerate")
	cycles := flag.Int64("cycles", 0, "simulated bus cycles per measurement (0 = default 200000)")
	seed := flag.Uint64("seed", 0, "experiment seed (0 = default 42)")
	parallel := flag.Int("parallel", 0,
		"sweep workers (0 = $"+runner.EnvVar+" then GOMAXPROCS, 1 = serial); results are identical for any value")
	csvDir := flag.String("csv", "", "also write each table/figure as CSV into this directory")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory: sweep points whose key is already stored replay from the cache instead of simulating")
	noCache := flag.Bool("no-cache", false, "ignore -cache-dir and always simulate (the cache A/B switch)")
	journalPath := flag.String("journal", "", "append structured JSONL run events to this file")
	progress := flag.Bool("progress", false, "print a progress heartbeat (done/total, elapsed, ETA) to stderr after each section")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		return 1
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

	var jw io.Writer
	if *journalPath != "" {
		f, err := os.OpenFile(*journalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		jw = f
	}
	var j *obs.Journal
	if jw != nil || *progress {
		j = obs.NewJournal(jw)
	}
	if *progress {
		attachHeartbeat(j, os.Stderr)
	}

	o := expt.Options{Cycles: *cycles, Seed: *seed, Parallel: *parallel}
	if *cacheDir != "" && !*noCache {
		o.Cache = cache.New(*cacheDir)
	}
	if err := run(os.Stdout, *fig, o, *csvDir, j); err != nil {
		return fail(err)
	}
	if o.Cache != nil {
		s := o.Cache.Stats()
		fmt.Fprintf(os.Stderr,
			"paperfigs: cache: %d hits (%d memory, %d disk), %d misses, %d evicted, %d B read, %d B written\n",
			s.Hits(), s.MemoryHits, s.DiskHits, s.Misses, s.Evictions, s.BytesRead, s.BytesWritten)
	}
	return code
}

// attachHeartbeat hangs a progress printer off the journal's event
// stream: run_start fixes the section total, each experiment_end steps
// the tracker and prints one line to w.
func attachHeartbeat(j *obs.Journal, w io.Writer) {
	var prog *obs.Progress
	j.Observe(func(event string, fields map[string]any) {
		switch event {
		case "run_start":
			if n, ok := fields["sections"].(int); ok {
				prog = obs.NewProgress(n)
			}
		case "experiment_end":
			prog.Step()
			s := prog.Snapshot()
			fmt.Fprintf(w, "paperfigs: %d/%d sections done, %.1fs elapsed, eta %.1fs\n",
				s.Done, s.Total, s.Elapsed, s.ETA)
		}
	})
}

// csvWritable is anything renderable as CSV (stats.Table and
// stats.Figure both qualify).
type csvWritable interface {
	WriteCSV(w io.Writer) error
}

// secCtx is what one section renders into: the output writer, the
// experiment options, and the CSV sink.
type secCtx struct {
	w      io.Writer
	o      expt.Options
	csvDir string
	id     string
}

func (c *secCtx) writeCSV(name string, v csvWritable) error {
	if c.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(c.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(c.csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return v.WriteCSV(f)
}

// csv writes the section's primary CSV (<id>.csv).
func (c *secCtx) csv(v csvWritable) error { return c.writeCSV(c.id, v) }

// csvNamed writes a secondary CSV (<id>_<name>.csv), e.g. the latency
// distribution behind a figure of means.
func (c *secCtx) csvNamed(name string, v csvWritable) error {
	return c.writeCSV(c.id+"_"+name, v)
}

// section is one renderable unit of the evaluation.
type section struct {
	id, title string
	render    func(c *secCtx) error
}

// sections lists every figure/table in presentation order. The ids are
// the -fig values; run selects from this table, so the journal knows
// the section count before the first simulation starts.
func sections() []section {
	return []section{
		{"4", "Fig. 4: bandwidth sharing under static priority", func(c *secCtx) error {
			r, err := expt.Fig4(c.o)
			if err != nil {
				return err
			}
			r.Figure().Render(c.w)
			if err := c.csv(r.Figure()); err != nil {
				return err
			}
			lo, hi := r.MasterRange(0)
			fmt.Fprintf(c.w, "C1 bandwidth range across assignments: %.1f%% .. %.1f%% (paper: 0.6%% .. 71.8%%)\n\n", 100*lo, 100*hi)
			return nil
		}},
		{"5", "Fig. 5: TDMA alignment sensitivity", func(c *secCtx) error {
			r, err := expt.Fig5(c.o)
			if err != nil {
				return err
			}
			fmt.Fprintln(c.w, r)
			fmt.Fprintln(c.w)
			return nil
		}},
		{"6a", "Fig. 6(a): bandwidth sharing under LOTTERYBUS", func(c *secCtx) error {
			r, err := expt.Fig6a(c.o)
			if err != nil {
				return err
			}
			r.Figure().Render(c.w)
			if err := c.csv(r.Figure()); err != nil {
				return err
			}
			fmt.Fprintf(c.w, "avg share by ticket value: %.2f : %.2f : %.2f : %.2f (paper: 1.05 : 1.9 : 2.96 : 3.83, ideal 1:2:3:4)\n\n",
				10*r.AvgShareByValue(1), 10*r.AvgShareByValue(2), 10*r.AvgShareByValue(3), 10*r.AvgShareByValue(4))
			return nil
		}},
		{"6b", "Fig. 6(b): latency, TDMA vs LOTTERYBUS", func(c *secCtx) error {
			r, err := expt.Fig6b(c.o)
			if err != nil {
				return err
			}
			r.Figure().Render(c.w)
			if err := c.csv(r.Figure()); err != nil {
				return err
			}
			r.DetailTable().Render(c.w)
			if err := c.csvNamed("latency", r.DetailTable()); err != nil {
				return err
			}
			fmt.Fprintf(c.w, "high-weight improvement: %.2fx vs 2-level TDMA, %.2fx vs 1-level TDMA (paper: ~7x)\n\n",
				r.HighPriorityImprovement(), r.HighPriorityImprovementOneLevel())
			return nil
		}},
		{"12a", "Fig. 12(a): LOTTERYBUS bandwidth across traffic classes", func(c *secCtx) error {
			r, err := expt.RunFig12a(c.o)
			if err != nil {
				return err
			}
			r.Figure().Render(c.w)
			if err := c.csv(r.Figure()); err != nil {
				return err
			}
			fmt.Fprintln(c.w)
			return nil
		}},
		{"12b", "Fig. 12(b): latency under two-level TDMA", func(c *secCtx) error {
			r, err := expt.RunFig12b(c.o)
			if err != nil {
				return err
			}
			r.Figure().Render(c.w)
			if err := c.csv(r.Figure()); err != nil {
				return err
			}
			if err := c.csvNamed("latency", r.DetailTable()); err != nil {
				return err
			}
			fmt.Fprintf(c.w, "worst high-weight latency: %.2f cycles/word; inversions: %d\n\n",
				r.MaxHighWeightLatency(), r.Inversions())
			return nil
		}},
		{"12b1", "Fig. 12(b) variant: latency under single-level TDMA", func(c *secCtx) error {
			r, err := expt.RunFig12bOneLevel(c.o)
			if err != nil {
				return err
			}
			r.Figure().Render(c.w)
			if err := c.csv(r.Figure()); err != nil {
				return err
			}
			if err := c.csvNamed("latency", r.DetailTable()); err != nil {
				return err
			}
			fmt.Fprintf(c.w, "worst high-weight latency: %.2f cycles/word\n\n", r.MaxHighWeightLatency())
			return nil
		}},
		{"12c", "Fig. 12(c): latency under LOTTERYBUS", func(c *secCtx) error {
			r, err := expt.RunFig12c(c.o)
			if err != nil {
				return err
			}
			r.Figure().Render(c.w)
			if err := c.csv(r.Figure()); err != nil {
				return err
			}
			r.DetailTable().Render(c.w)
			if err := c.csvNamed("latency", r.DetailTable()); err != nil {
				return err
			}
			fmt.Fprintf(c.w, "worst high-weight latency: %.2f cycles/word; inversions: %d (paper: none)\n\n",
				r.MaxHighWeightLatency(), r.Inversions())
			return nil
		}},
		{"table1", "Table 1: ATM switch QoS", tableSection(func(o expt.Options) (tabler, error) { return expt.RunTable1(o) })},
		{"hw", "§5.2: hardware complexity", func(c *secCtx) error {
			r := expt.RunHWComplexity()
			r.Table().Render(c.w)
			if err := c.csv(r.Table()); err != nil {
				return err
			}
			fmt.Fprintln(c.w)
			r.BreakdownTable().Render(c.w)
			fmt.Fprintln(c.w, "paper data point: 1458 cell grids, 3.06 ns, one-cycle arbitration up to 326.5 MHz")
			fmt.Fprintln(c.w)
			return nil
		}},
		{"gates", "§5.2 cross-check: gate-level netlist", tableSection(func(expt.Options) (tabler, error) { return expt.RunGateLevel() })},
		{"starvation", "§4.2: starvation bound", tableSection(func(o expt.Options) (tabler, error) { return expt.RunStarvation(o) })},
		{"dynamic", "§4.4 extension: dynamic ticket re-provisioning", tableSection(func(o expt.Options) (tabler, error) { return expt.RunDynamicTickets(o) })},
		{"bridge", "§2.3 extension: bridged two-bus hierarchy", tableSection(func(o expt.Options) (tabler, error) { return expt.RunBridge(o) })},
		{"slack", "ablation: slack policies", tableSection(func(o expt.Options) (tabler, error) { return expt.RunSlackAblation(o) })},
		{"pipeline", "ablation: arbitration pipelining", tableSection(func(o expt.Options) (tabler, error) { return expt.RunPipelineAblation(o) })},
		{"compensation", "extension: compensation tickets for mixed message sizes", tableSection(func(o expt.Options) (tabler, error) { return expt.RunCompensation(o) })},
		{"burst", "ablation: maximum transfer size", tableSection(func(o expt.Options) (tabler, error) { return expt.RunBurstAblation(o) })},
		{"models", "validation: analytic models vs simulation", tableSection(func(o expt.Options) (tabler, error) { return expt.RunModelValidation(o) })},
		{"tail", "extension: latency tails under randomized arbitration", tableSection(func(o expt.Options) (tabler, error) { return expt.RunTailLatency(o) })},
		{"replay", "extension: all architectures on one recorded workload", tableSection(func(o expt.Options) (tabler, error) { return expt.RunReplay(o) })},
		{"split", "extension: split transactions vs blocking slave", tableSection(func(o expt.Options) (tabler, error) { return expt.RunSplitAblation(o) })},
		{"scale", "extension: proportional sharing at scale", tableSection(func(o expt.Options) (tabler, error) { return expt.RunScalability(o) })},
		{"cmp64", "extension: 64-core CMP over the partial-crossbar fabric", tableSection(func(o expt.Options) (tabler, error) { return expt.RunCMP64(o) })},
		{"adaptation", "extension: dynamic re-provisioning transient", func(c *secCtx) error {
			r, err := expt.RunAdaptation(c.o)
			if err != nil {
				return err
			}
			fmt.Fprintf(c.w, "ticket swap at cycle %d settles within %d cycles (window %d)\n\n",
				r.SwapCycle, r.SettleCycles, r.Window)
			return nil
		}},
		{"wrr", "extension: lottery vs weighted round robin", tableSection(func(o expt.Options) (tabler, error) { return expt.RunWRRComparison(o) })},
		{"regimes", "extension: regime classification and analytic short-circuit", func(c *secCtx) error {
			r, err := expt.RunRegimes(c.o)
			if err != nil {
				return err
			}
			r.Table().Render(c.w)
			if err := c.csv(r.Table()); err != nil {
				return err
			}
			fmt.Fprintf(c.w, "%d points short-circuited by closed forms, %d simulated\n\n",
				r.Skipped, r.Simulated)
			return nil
		}},
		{"check", "verification: invariant & engine-equivalence matrix", func(c *secCtx) error {
			r, err := expt.RunCheck(c.o)
			if err != nil {
				return err
			}
			r.Table().Render(c.w)
			if err := c.csv(r.Table()); err != nil {
				return err
			}
			for _, v := range r.Violations() {
				fmt.Fprintln(c.w, "VIOLATION", v)
			}
			fmt.Fprintln(c.w)
			return nil
		}},
		{"degradation", "robustness: arbiters under rising slave-error rates", func(c *secCtx) error {
			r, err := expt.RunDegradation(c.o)
			if err != nil {
				return err
			}
			r.Table().Render(c.w)
			if err := c.csv(r.Table()); err != nil {
				return err
			}
			if lot, prio := r.Point("lottery", 0.01), r.Point("static-priority", 0.01); lot != nil && prio != nil {
				fmt.Fprintf(c.w, "at 1%% slave errors: lottery share error %.1f%%; static-priority C1 max wait %d cycles\n",
					100*lot.ShareErr, prio.LowMaxWait)
			}
			fmt.Fprintln(c.w)
			return nil
		}},
		{"babble", "robustness: babbling master and dynamic ticket recovery", func(c *secCtx) error {
			r, err := expt.RunBabble(c.o)
			if err != nil {
				return err
			}
			r.Table().Render(c.w)
			if err := c.csv(r.Table()); err != nil {
				return err
			}
			if s, g := r.Row("static-lottery"), r.Row("guarded-dynamic"); s != nil && g != nil {
				fmt.Fprintf(c.w, "well-behaved share during babble: %.1f%% static -> %.1f%% with the ticket guard\n",
					100*s.WellShare, 100*g.WellShare)
			}
			fmt.Fprintln(c.w)
			return nil
		}},
	}
}

// tabler is an experiment result whose presentation is a single table.
type tabler interface{ Table() *stats.Table }

// tableSection adapts the common experiment shape — run, render the
// table, CSV it — into a section body.
func tableSection(runExp func(o expt.Options) (tabler, error)) func(c *secCtx) error {
	return func(c *secCtx) error {
		r, err := runExp(c.o)
		if err != nil {
			return err
		}
		r.Table().Render(c.w)
		if err := c.csv(r.Table()); err != nil {
			return err
		}
		fmt.Fprintln(c.w)
		return nil
	}
}

// run renders the selected section(s) to w, emitting lifecycle events
// to the journal (which may be nil). The section list is resolved
// before the first simulation starts, so run_start carries the total.
func run(w io.Writer, fig string, o expt.Options, csvDir string, j *obs.Journal) error {
	var selected []section
	for _, s := range sections() {
		if fig == "all" || fig == s.id {
			selected = append(selected, s)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown figure %q", fig)
	}

	eff := o.Filled()
	j.Emit("run_start", map[string]any{
		"tool": "paperfigs", "fig": fig, "sections": len(selected),
		"cycles": eff.Cycles, "seed": eff.Seed, "parallel": eff.Parallel,
	})
	for _, s := range selected {
		j.Emit("experiment_start", map[string]any{"id": s.id, "title": s.title})
		fmt.Fprintf(w, "==== %s — %s ====\n", s.id, s.title)
		if err := s.render(&secCtx{w: w, o: o, csvDir: csvDir, id: s.id}); err != nil {
			j.Emit("experiment_error", map[string]any{"id": s.id, "error": err.Error()})
			return err
		}
		j.Emit("experiment_end", map[string]any{"id": s.id})
	}
	j.Emit("run_end", map[string]any{"sections": len(selected)})
	return nil
}
