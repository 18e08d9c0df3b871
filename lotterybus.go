// Package lotterybus is a cycle-accurate simulator of system-on-chip
// shared-bus communication architectures, built around the LOTTERYBUS
// randomized arbitration scheme of Lahiri, Raghunathan and
// Lakshminarayana (DAC 2001), together with the conventional
// architectures the paper compares against: static priority, two-level
// TDMA, round-robin and token-ring arbitration.
//
// A System is a shared bus with masters (traffic sources) and slaves
// (targets). Each master carries a QoS weight, which becomes its
// lottery ticket holding, TDMA slot count or static priority depending
// on the arbitration scheme selected:
//
//	sys := lotterybus.NewSystem(lotterybus.Config{Seed: 1})
//	sys.AddSlave("mem", 0)
//	sys.AddMaster("cpu", 3, lotterybus.SaturatingTraffic(16, 0))
//	sys.AddMaster("dma", 1, lotterybus.SaturatingTraffic(16, 0))
//	if err := sys.UseLottery(); err != nil { ... }
//	if err := sys.Run(100000); err != nil { ... }
//	fmt.Println(sys.Report())
//
// The internal packages implement the substrates: the lottery managers
// (internal/core), the bus model (internal/bus), arbiters
// (internal/arb), traffic generators (internal/traffic), the ATM switch
// case study (internal/atm), gate-level manager models with area/timing
// estimation (internal/hw), bridged multi-bus topologies
// (internal/topology), and the harness regenerating every figure and
// table of the paper (internal/expt, driven by cmd/paperfigs and
// bench_test.go).
package lotterybus

import (
	"context"
	"fmt"
	"strings"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/check"
	"lotterybus/internal/core"
	"lotterybus/internal/fault"
	"lotterybus/internal/obs"
	"lotterybus/internal/prng"
	"lotterybus/internal/stats"
	"lotterybus/internal/trace"
)

// Generator produces the communication transactions of one master: Tick
// is called once per bus cycle with the master's queue depth and calls
// emit once per arriving message. The traffic constructors in this
// package return ready-made implementations.
type Generator interface {
	Tick(cycle int64, queued int, emit func(words, slave int))
}

// Config parameterizes a System.
type Config struct {
	// MaxBurst caps the words one grant may cover (default 16).
	MaxBurst int
	// ArbLatency is the idle cycles charged per arbitration; zero
	// models arbitration pipelined with data transfer.
	ArbLatency int
	// Seed drives the lottery manager's random stream and any seeded
	// traffic helpers created through this package (default 1).
	Seed uint64
	// RetryLimit bounds re-attempts of a burst killed by a slave error
	// response before the message is abandoned (default 16; only
	// relevant with fault injection armed, see SetFaults).
	RetryLimit int
	// RetryBackoff is the linear backoff unit between retries, in
	// cycles per consecutive failure.
	RetryBackoff int
	// SplitTimeout, when positive, arms the watchdog that aborts split
	// transactions whose response never arrives.
	SplitTimeout int64
	// StarvationThreshold, when positive, arms the starvation
	// detector: pending waits at or beyond it are counted per cycle
	// and reported per master.
	StarvationThreshold int64
}

// System is a shared bus under construction or simulation.
type System struct {
	cfg     Config
	b       *bus.Bus
	weights []uint64
	rec     *trace.Recorder
}

// NewSystem returns an empty system.
func NewSystem(cfg Config) *System {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &System{
		cfg: cfg,
		b: bus.New(bus.Config{
			MaxBurst:            cfg.MaxBurst,
			ArbLatency:          cfg.ArbLatency,
			RetryLimit:          cfg.RetryLimit,
			RetryBackoff:        cfg.RetryBackoff,
			SplitTimeout:        cfg.SplitTimeout,
			StarvationThreshold: cfg.StarvationThreshold,
		}),
	}
}

// AddMaster attaches a master with a QoS weight (>= 1) and a traffic
// generator (nil for masters driven via Inject). It returns the master
// index. Masters must be added before an arbiter is selected.
func (s *System) AddMaster(name string, weight uint64, gen Generator) int {
	if weight == 0 {
		weight = 1
	}
	var bg bus.Generator
	if gen != nil {
		bg = gen
	}
	s.b.AddMaster(name, bg, bus.MasterOpts{Tickets: weight})
	s.weights = append(s.weights, weight)
	return len(s.weights) - 1
}

// AddSlave attaches a slave with the given per-word wait states and
// returns its index.
func (s *System) AddSlave(name string, waitStates int) int {
	return s.b.AddSlave(name, bus.SlaveOpts{WaitStates: waitStates})
}

// AddSplitSlave attaches a split-transaction slave: a granted request
// occupies the bus for one address beat, the bus is released for
// latency cycles while the slave processes, and the master then
// re-arbitrates to move the data. Each master may have one split
// transaction outstanding.
func (s *System) AddSplitSlave(name string, latency int) int {
	return s.b.AddSlave(name, bus.SlaveOpts{SplitLatency: latency})
}

// Inject enqueues one message on a master programmatically; it reports
// false on queue overflow.
func (s *System) Inject(master, words, slave int) bool {
	return s.b.Inject(master, words, slave)
}

// UseLottery selects the static LOTTERYBUS arbiter: master weights are
// lottery tickets, and bandwidth is allocated in proportion to them.
func (s *System) UseLottery() error {
	mgr, err := core.NewStaticLottery(core.StaticConfig{
		Tickets: s.weights,
		Source:  prng.NewXorShift64Star(prng.Derive(s.cfg.Seed, "lotterybus/static")),
	})
	if err != nil {
		return err
	}
	s.b.SetArbiter(arb.NewStaticLottery(mgr))
	return nil
}

// UseDynamicLottery selects the dynamic LOTTERYBUS arbiter: ticket
// holdings are sampled live on every arbitration, so SetWeight
// re-provisions bandwidth at run time.
func (s *System) UseDynamicLottery() error {
	mgr, err := s.dynamicManager("lotterybus/dynamic")
	if err != nil {
		return err
	}
	s.b.SetArbiter(arb.NewDynamicLottery(mgr))
	return nil
}

// UseCompensatedLottery selects the lottery with Waldspurger-Weihl
// compensation tickets: a winner that moves fewer words than the
// maximum transfer size has its effective holding inflated until its
// next win, so bandwidth shares track the configured weights even when
// masters send differently sized messages.
func (s *System) UseCompensatedLottery() error {
	mgr, err := s.dynamicManager("lotterybus/compensated")
	if err != nil {
		return err
	}
	maxBurst := s.cfg.MaxBurst
	if maxBurst == 0 {
		maxBurst = 16
	}
	return s.setArbiter(arb.NewCompensatedLottery(s.weights, maxBurst, mgr))
}

// dynamicManager builds a dynamic lottery manager over the masters,
// drawing from the system seed's stream for label.
func (s *System) dynamicManager(label string) (*core.DynamicLottery, error) {
	return core.NewDynamicLottery(core.DynamicConfig{
		Masters: len(s.weights),
		Source:  prng.NewXorShift64Star(prng.Derive(s.cfg.Seed, label)),
	})
}

// UsePriority selects static-priority arbitration: master weights are
// priorities (larger wins).
func (s *System) UsePriority() error {
	return s.setArbiter(arb.NewPriority(s.weights))
}

// UseTDMA selects time-division multiplexed arbitration: each master
// owns weight*slotsPerWeight contiguous slots of the timing wheel.
// twoLevel enables round-robin reclamation of idle slots.
func (s *System) UseTDMA(slotsPerWeight int, twoLevel bool) error {
	if slotsPerWeight <= 0 {
		slotsPerWeight = 1
	}
	slots := make([]int, len(s.weights))
	for i, w := range s.weights {
		slots[i] = int(w) * slotsPerWeight
	}
	return s.setArbiter(arb.NewTDMA(arb.ContiguousWheel(slots), len(s.weights), twoLevel))
}

// UseRoundRobin selects weight-blind round-robin arbitration.
func (s *System) UseRoundRobin() error {
	return s.setArbiter(arb.NewRoundRobin(len(s.weights)))
}

// UseTokenRing selects token-ring arbitration (one cycle per token hop).
func (s *System) UseTokenRing() error {
	return s.setArbiter(arb.NewTokenRing(len(s.weights), 0))
}

// setArbiter attaches a freshly constructed arbiter unless its
// construction failed.
func (s *System) setArbiter(a bus.Arbiter, err error) error {
	if err != nil {
		return err
	}
	s.b.SetArbiter(a)
	return nil
}

// Babbler describes a misbehaving master that floods the bus with
// bogus traffic during a cycle window — the fault model for a locked-up
// DMA engine or a protocol-violating IP block.
type Babbler struct {
	// Master is the index of the misbehaving master.
	Master int `json:"master"`
	// Start and Stop bound the babbling window; Stop 0 means forever.
	Start int64 `json:"start,omitempty"`
	Stop  int64 `json:"stop,omitempty"`
	// Load is the per-cycle probability of injecting a bogus message.
	Load float64 `json:"load"`
	// Words is the bogus message length (default 1) and Slave its
	// target.
	Words int `json:"words,omitempty"`
	Slave int `json:"slave,omitempty"`
}

// FaultConfig parameterizes deterministic fault injection: every rate
// is drawn from its own seeded stream per slave, so runs are exactly
// reproducible and adding one fault class never perturbs another.
type FaultConfig struct {
	// Seed roots the fault streams; zero derives one from the system
	// seed.
	Seed uint64 `json:"seed,omitempty"`
	// SlaveError is the per-beat probability that the slave terminates
	// the burst with an error response (the master retries under the
	// RetryLimit/RetryBackoff policy).
	SlaveError float64 `json:"slaveError,omitempty"`
	// WordError is the per-beat probability of a corrupted word: the
	// beat consumes bus bandwidth but delivers nothing.
	WordError float64 `json:"wordError,omitempty"`
	// SplitHang is the probability that a split slave never produces
	// its response (recovered only by the SplitTimeout watchdog).
	SplitHang float64 `json:"splitHang,omitempty"`
	// Babblers lists misbehaving masters.
	Babblers []Babbler `json:"babblers,omitempty"`
}

// SetFaults arms deterministic fault injection on the bus. Call it
// after all masters and slaves are attached; a zero config disarms the
// model from the next Run on. Faults do not cost the fast-forward
// engine: it draws them beat by beat as events, and only the cycles
// inside a babble window run on the per-cycle engine. The Report gains
// the resilience counters.
func (s *System) SetFaults(cfg FaultConfig) error {
	fc := fault.Config{
		Seed:       cfg.Seed,
		SlaveError: cfg.SlaveError,
		WordError:  cfg.WordError,
		SplitHang:  cfg.SplitHang,
	}
	if fc.Seed == 0 {
		fc.Seed = prng.Derive(s.cfg.Seed, "lotterybus/fault")
	}
	for _, b := range cfg.Babblers {
		fc.Babblers = append(fc.Babblers, fault.Babbler{
			Master: b.Master, Start: b.Start, Stop: b.Stop,
			Load: b.Load, Words: b.Words, Slave: b.Slave,
		})
	}
	inj, err := fault.New(fc, s.b.NumMasters(), s.b.NumSlaves())
	if err != nil {
		return err
	}
	s.b.SetFaultModel(inj)
	return nil
}

// SetWeight updates a master's QoS weight. Under the dynamic lottery
// the new holding takes effect at the next arbitration; other arbiters
// read weights at Use* time, so call the Use* method again to re-apply.
func (s *System) SetWeight(master int, weight uint64) {
	if weight == 0 {
		weight = 1
	}
	s.weights[master] = weight
	s.b.Master(master).SetTickets(weight)
}

// Weight returns a master's current QoS weight.
func (s *System) Weight(master int) uint64 { return s.weights[master] }

// NumMasters returns the number of masters.
func (s *System) NumMasters() int { return len(s.weights) }

// Cycle returns the current simulation cycle.
func (s *System) Cycle() int64 { return s.b.Cycle() }

// Run simulates n bus cycles; it may be called repeatedly.
//
// When no OnCycle callback is registered and every generator can
// predict its arrivals (every constructor in this package's traffic
// helpers can, SaturatingTraffic included), Run uses the bus's
// event-driven fast-forward engine, skipping dead cycles and batching
// uninterrupted burst transfers while producing bit-identical
// statistics; see FastForwardedCycles.
func (s *System) Run(n int64) error { return s.b.Run(n) }

// RunChunk is the number of cycles RunContext simulates between
// cancellation checks. Chunked runs are bit-identical to a single Run
// of the same total length (Run is resumable by contract), so the only
// cost of cancellability is one branch per chunk — zero per-cycle
// overhead in the hot loop.
const RunChunk = 1 << 20

// RunContext simulates n bus cycles like Run, checking ctx between
// RunChunk-cycle slices. On cancellation or deadline expiry it stops at
// the next chunk boundary and returns ctx.Err(); statistics up to that
// point are valid partial results (Cycle() says how far it got). A
// context that can never be cancelled runs the whole span in one Run
// call, making RunContext(context.Background(), n) exactly Run(n).
func (s *System) RunContext(ctx context.Context, n int64) error {
	return s.RunContextObserved(ctx, n, nil)
}

// RunContextObserved is RunContext with a progress observer invoked
// after every completed chunk with (cycles done so far, total). The
// observer runs between chunks, never inside one, so it adds nothing to
// the per-cycle loop and leaves fast-forward eligibility untouched —
// it exists so the job server can mark simulate-chunk span boundaries.
// A nil observe degrades to RunContext exactly.
func (s *System) RunContextObserved(ctx context.Context, n int64, observe func(done, total int64)) error {
	if ctx.Done() == nil && observe == nil {
		return s.b.Run(n)
	}
	for done := int64(0); done < n; {
		if err := ctx.Err(); err != nil {
			return err
		}
		step := min(n-done, RunChunk)
		if err := s.b.Run(step); err != nil {
			return err
		}
		done += step
		if observe != nil {
			observe(done, n)
		}
	}
	return ctx.Err()
}

// FastForwardedCycles returns how many simulated cycles were advanced
// in bulk by the fast-forward engine rather than executed one by one —
// zero when a per-cycle observer (OnCycle), an unpredictable generator
// or a babbler active throughout forced the naive loop.
func (s *System) FastForwardedCycles() int64 { return s.b.FastForwarded() }

// OnCycle registers a callback invoked at the start of every cycle —
// useful for run-time ticket re-provisioning policies.
func (s *System) OnCycle(fn func(cycle int64, s *System)) {
	if fn == nil {
		s.b.OnCycle = nil
		return
	}
	s.b.OnCycle = func(cycle int64, _ *bus.Bus) { fn(cycle, s) }
}

// MasterReport is one master's simulation outcome.
type MasterReport struct {
	Name string
	// Weight is the master's QoS weight at reporting time.
	Weight uint64
	// BandwidthFraction is the share of all bus cycles spent moving
	// this master's words.
	BandwidthFraction float64
	// PerWordLatency is the average bus cycles per transferred word,
	// including waiting (NaN if no message completed).
	PerWordLatency float64
	// LatencyP50, LatencyP95, LatencyP99 and LatencyMax summarize the
	// per-word latency distribution behind PerWordLatency (cycles/word
	// at the collector histogram's resolution; NaN if no message
	// completed) — the difference between "low on average" and "low and
	// stable".
	LatencyP50, LatencyP95, LatencyP99, LatencyMax float64
	// AvgMessageLatency is the mean arrival-to-completion latency.
	AvgMessageLatency float64
	// MaxStartWait is the longest arrival-to-first-grant wait of any of
	// this master's started messages, in cycles. Unlike MaxWait it is
	// collected on every run, with no starvation detector armed.
	MaxStartWait int64
	// Messages and Words count completed messages and moved words.
	Messages, Words int64
	// Dropped counts messages lost to queue overflow.
	Dropped int64
	// Queued is the queue depth at reporting time.
	Queued int
	// Retries, Aborts, SplitTimeouts and ErrorWords count resilience
	// events under fault injection: re-attempted bursts, messages
	// abandoned past the retry limit, split transactions killed by the
	// watchdog, and errored/corrupted data beats.
	Retries, Aborts, SplitTimeouts, ErrorWords int64
	// StarvedCycles counts cycles this master spent pending beyond the
	// starvation threshold; MaxWait is its longest bus wait, including
	// one still unresolved at reporting time.
	StarvedCycles, MaxWait int64
}

// Report summarizes the simulation so far.
type Report struct {
	Arbiter     string
	Cycles      int64
	Utilization float64
	Masters     []MasterReport
}

// Report returns the current simulation statistics.
func (s *System) Report() Report {
	return s.reportFrom(s.b.Collector(), true)
}

// Collector returns the system's statistics collector — the complete
// numeric outcome of the simulation so far. It is what the result
// cache (internal/cache) snapshots: every Report/RecordObs value
// except live queue depths derives from it.
func (s *System) Collector() *stats.Collector { return s.b.Collector() }

// ReportFor builds the Report this system would produce had col been
// its collector — the warm path of the result cache, where a hit's
// decoded snapshot replaces a simulation. Dropped comes from the
// collector's in-run drop counter (identical to the live counter for
// generator-driven runs) and Queued is zero: queue depth is
// transient bus state, deliberately outside the cached result.
func (s *System) ReportFor(col *stats.Collector) Report {
	return s.reportFrom(col, false)
}

// reportFrom renders col; live selects the bus's master-side drop and
// queue-depth counters over the collector-only view.
func (s *System) reportFrom(col *stats.Collector, live bool) Report {
	r := Report{
		Cycles:      col.Cycles(),
		Utilization: col.Utilization(),
	}
	if a := s.b.Arbiter(); a != nil {
		r.Arbiter = a.Name()
	}
	for i := 0; i < s.b.NumMasters(); i++ {
		m := s.b.Master(i)
		dropped, queued := col.Drops(i), 0
		if live {
			dropped, queued = m.Dropped(), m.QueueLen()
		}
		r.Masters = append(r.Masters, masterReport(col, i, m.Name(), s.weights[i], dropped, queued))
	}
	return r
}

// masterReport renders master i's row from col; dropped and queued come
// from the engine (live) or the collector (cached), as the caller
// chooses.
func masterReport(col *stats.Collector, i int, name string, weight uint64, dropped int64, queued int) MasterReport {
	d := col.LatencyDist(i)
	return MasterReport{
		Name:              name,
		Weight:            weight,
		BandwidthFraction: col.BandwidthFraction(i),
		PerWordLatency:    col.PerWordLatency(i),
		LatencyP50:        d.P50,
		LatencyP95:        d.P95,
		LatencyP99:        d.P99,
		LatencyMax:        d.Max,
		AvgMessageLatency: col.AvgMessageLatency(i),
		MaxStartWait:      col.MaxStartWait(i),
		Messages:          col.Messages(i),
		Words:             col.Words(i),
		Dropped:           dropped,
		Queued:            queued,
		Retries:           col.Retries(i),
		Aborts:            col.Aborts(i),
		SplitTimeouts:     col.SplitTimeouts(i),
		ErrorWords:        col.ErrorWords(i),
		StarvedCycles:     col.StarvedCycles(i),
		MaxWait:           col.MaxPendingWait(i),
	}
}

// String renders the report as an aligned table. The resilience
// columns appear only when a run recorded fault activity, so fault-free
// output is unchanged.
func (r Report) String() string {
	faulty := false
	for _, m := range r.Masters {
		if m.Retries|m.Aborts|m.SplitTimeouts|m.ErrorWords|m.StarvedCycles|m.MaxWait != 0 {
			faulty = true
			break
		}
	}
	cols := []string{"master", "weight", "bw%", "cyc/word", "p95", "p99", "msg latency", "messages", "dropped", "max wait"}
	if faulty {
		cols = append(cols, "retries", "aborts", "timeouts", "err words", "starved cyc", "worst pend")
	}
	t := stats.NewTable(
		fmt.Sprintf("%s after %d cycles (%.1f%% utilized)", r.Arbiter, r.Cycles, 100*r.Utilization),
		cols...)
	for _, m := range r.Masters {
		row := []string{m.Name,
			fmt.Sprintf("%d", m.Weight),
			fmt.Sprintf("%.1f", 100*m.BandwidthFraction),
			fmt.Sprintf("%.2f", m.PerWordLatency),
			fmt.Sprintf("%.2f", m.LatencyP95),
			fmt.Sprintf("%.2f", m.LatencyP99),
			fmt.Sprintf("%.1f", m.AvgMessageLatency),
			fmt.Sprintf("%d", m.Messages),
			fmt.Sprintf("%d", m.Dropped),
			fmt.Sprintf("%d", m.MaxStartWait),
		}
		if faulty {
			row = append(row,
				fmt.Sprintf("%d", m.Retries),
				fmt.Sprintf("%d", m.Aborts),
				fmt.Sprintf("%d", m.SplitTimeouts),
				fmt.Sprintf("%d", m.ErrorWords),
				fmt.Sprintf("%d", m.StarvedCycles),
				fmt.Sprintf("%d", m.MaxWait),
			)
		}
		t.AddRow(row...)
	}
	return strings.TrimRight(t.String(), "\n")
}

// RecordObs folds the simulation's statistics so far into an
// observability registry (internal/obs) as one batched update: cycle,
// word, message, grant and resilience counters plus the per-master
// latency histograms, all under the given labels (each master
// additionally labelled with its name). It reads the collector without
// touching it, so calling it never perturbs fingerprints or the
// fast-forward engine — the telemetry endpoint and sweep aggregation
// both build on this single coupling point.
func (s *System) RecordObs(reg *obs.Registry, labels obs.Labels) {
	s.RecordObsFor(s.b.Collector(), reg, labels)
}

// RecordObsFor is RecordObs over an explicit collector — used by the
// result cache's warm path, where a decoded snapshot stands in for a
// simulation that never ran in this process.
func (s *System) RecordObsFor(col *stats.Collector, reg *obs.Registry, labels obs.Labels) {
	names := make([]string, s.b.NumMasters())
	for i := range names {
		names[i] = s.b.Master(i).Name()
	}
	obs.RecordRun(reg, labels, names, col)
}

// CheckInvariants audits the simulation's conservation and accounting
// invariants (package check) — word/message conservation per master,
// grant exclusivity, non-negative waits and latencies, slave/master word
// agreement — and returns one line per violation. Empty means the run is
// internally consistent. Like RecordObs it only reads finished state, so
// checking never perturbs a simulation that continues afterwards.
func (s *System) CheckInvariants() []string {
	vs := check.Audit(s.b)
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// AccessProbability returns the probability that a master holding t of
// total live tickets wins at least one of n lotteries: 1-(1-t/total)^n
// (paper §4.2's starvation bound).
func AccessProbability(t, total uint64, n int) float64 {
	return core.AccessProbability(t, total, n)
}

// DrawsForConfidence returns the smallest lottery count after which a
// holder of t of total tickets has won at least once with probability p.
func DrawsForConfidence(t, total uint64, p float64) int {
	return core.DrawsForConfidence(t, total, p)
}

// TicketsForShares converts designer-facing bandwidth targets (any
// positive weights; they are normalized, so percentages work) into the
// smallest integer ticket assignment whose ratios match each target
// within maxErr relative error. The achieved worst-case error is
// returned alongside the tickets.
func TicketsForShares(shares []float64, maxErr float64) ([]uint64, float64, error) {
	return core.TicketsForShares(shares, maxErr)
}
