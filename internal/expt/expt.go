// Package expt reproduces every table and figure of the LOTTERYBUS
// paper's evaluation (plus the extension experiments listed in
// DESIGN.md). Each experiment is a pure function of an Options value,
// returns a typed result with the raw numbers, and renders itself as the
// rows/series the paper reports. The cmd/paperfigs binary and the
// repository's bench_test.go both drive these entry points.
//
// All sweeps here run on the bus fast-forward engine automatically: the
// generators are traffic.Scheduler implementations or traffic.Saturating
// and no per-cycle hook is attached (the exceptions — the Fig. 5
// alignment study, the adaptation experiment and the fault sweeps —
// observe or perturb every cycle and therefore run the naive loop). The
// engine is bit-identical to the naive loop, so the reproduced numbers
// are unchanged; it pays on the paper's sparse traffic classes (T3, T6,
// T9, the low-load latency surface corners), skipping the dead cycles
// between arrivals, and on saturated buses, batching burst interiors.
package expt

import (
	"fmt"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/cache"
	"lotterybus/internal/core"
	"lotterybus/internal/prng"
	"lotterybus/internal/runner"
	"lotterybus/internal/stats"
	"lotterybus/internal/traffic"
)

// Options controls simulation length, seeding and parallelism for all
// experiments.
type Options struct {
	// Cycles is the simulated bus cycles per measurement point; zero
	// selects 200000.
	Cycles int64
	// Seed drives every stochastic element; zero selects 42.
	Seed uint64
	// Parallel is the worker count for sweep-shaped experiments. Each
	// sweep point derives its own PRNG streams, so results are
	// bit-identical for every worker count. Zero consults the
	// LOTTERYBUS_PARALLEL environment variable and then GOMAXPROCS;
	// 1 forces a serial run.
	Parallel int
	// NoAnalytic disables the analytic short-circuit: every sweep point
	// simulates, even ones the regime classifier proves in closed form,
	// and the simulated/analytic share error is recorded instead.
	NoAnalytic bool
	// Cache, when non-nil, is the content-addressed result cache the
	// sweep experiments resolve their points through: a point whose
	// (descriptor, cycles, seed) key is already stored replays from its
	// snapshot instead of simulating, and concurrent workers landing on
	// one key share a single simulation (singleflight). nil disables
	// caching with no behavioural difference — cached and uncached runs
	// are bit-identical.
	Cache *cache.Cache
}

func (o Options) fill() Options {
	if o.Cycles == 0 {
		o.Cycles = 200000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Filled returns the options with defaults applied — the values the
// experiments actually run with. Run journals record these effective
// values rather than the zero sentinels, so a journal line is complete
// seed provenance on its own.
func (o Options) Filled() Options { return o.fill() }

// workers resolves the sweep worker count.
func (o Options) workers() int { return runner.Workers(o.Parallel) }

// fourMasters is the paper's canonical test system (Fig. 3): four
// masters contending for a shared memory.
const fourMasters = 4

// busyLoad is the per-master offered load (words/cycle) used by the
// bandwidth-sharing experiments, chosen so "the bus was always kept
// busy, i.e., at least one pending request exists at any time" while no
// single master saturates it alone (aggregate 2.88 words/cycle).
const busyLoad = 0.72

// busyMsgWords is the message size for the bandwidth-sharing workload.
const busyMsgWords = 16

// busyGenerator builds master i's heavy Bernoulli generator for the
// bandwidth-sharing workload, its stream derived from the tag.
func busyGenerator(o Options, tag string, i int) (*traffic.Bernoulli, error) {
	return traffic.NewBernoulli(busyLoad, traffic.Fixed(busyMsgWords), 0,
		prng.Derive(o.Seed, fmt.Sprintf("%s/gen/%d", tag, i)))
}

// newBusyBus builds the Fig. 3 system: four masters with heavy Bernoulli
// traffic into one shared memory, arbiter attached by the caller.
// Tickets are set per master for lottery arbiters.
func newBusyBus(o Options, tickets []uint64, tag string) (*bus.Bus, error) {
	b := bus.New(bus.Config{MaxBurst: 16})
	for i := 0; i < fourMasters; i++ {
		var tk uint64
		if tickets != nil {
			tk = tickets[i]
		}
		gen, err := busyGenerator(o, tag, i)
		if err != nil {
			return nil, err
		}
		b.AddMaster(fmt.Sprintf("C%d", i+1), gen, bus.MasterOpts{Tickets: tk})
	}
	b.AddSlave("shared-memory", bus.SlaveOpts{})
	return b, nil
}

// newClassBus builds a four-master system driven by one traffic class,
// with per-master tickets for lottery arbiters.
func newClassBus(o Options, class traffic.Class, tickets []uint64, tag string) (*bus.Bus, error) {
	b := bus.New(bus.Config{MaxBurst: 16})
	for i := 0; i < fourMasters; i++ {
		var tk uint64
		if tickets != nil {
			tk = tickets[i]
		}
		gen, err := class.Generator(i, 0, prng.Derive(o.Seed, tag))
		if err != nil {
			return nil, err
		}
		b.AddMaster(fmt.Sprintf("C%d", i+1), gen, bus.MasterOpts{Tickets: tk})
	}
	b.AddSlave("shared-memory", bus.SlaveOpts{})
	return b, nil
}

// lotteryArbiter builds a static lottery arbiter over the given tickets
// with the exact slack policy (the behavioural reference).
func lotteryArbiter(o Options, tickets []uint64, tag string) (bus.Arbiter, error) {
	mgr, err := core.NewStaticLottery(core.StaticConfig{
		Tickets: tickets,
		Source:  prng.NewXorShift64Star(prng.Derive(o.Seed, tag+"/lottery")),
	})
	if err != nil {
		return nil, err
	}
	return arb.NewStaticLottery(mgr), nil
}

// tdmaArbiter builds a two-level TDMA arbiter with contiguous
// reservation blocks of blockScale slots per weight unit.
func tdmaArbiter(weights []uint64, blockScale int) (bus.Arbiter, error) {
	slots := make([]int, len(weights))
	for i, w := range weights {
		slots[i] = int(w) * blockScale
	}
	return arb.NewTDMA(arb.ContiguousWheel(slots), len(weights), true)
}

// pointKey derives the cache key for one sweep point. tag must name
// the point unambiguously within the experiment namespace — the
// architecture, the experiment, and every swept parameter — because
// together with the run length and seed it is the entire content
// address.
func (o Options) pointKey(tag string) cache.Key {
	desc := fmt.Sprintf("lotterybus/expt/v1|%s|cycles=%d", tag, o.Cycles)
	return cache.KeyOf([]byte(desc), o.Seed, "expt")
}

// runPoint resolves one sweep point through the options' result cache.
// On a miss (or with no cache) build constructs the fully configured
// bus, which is simulated for o.Cycles and snapshotted; on a hit the
// simulation is skipped and the stored collector — verified against
// its embedded fingerprint and checksum — is returned.
func runPoint(o Options, tag string, build func() (*bus.Bus, error)) (*stats.Collector, error) {
	col, _, err := o.Cache.GetOrCompute(o.pointKey(tag), func() (*stats.Collector, error) {
		b, err := build()
		if err != nil {
			return nil, err
		}
		if err := b.Run(o.Cycles); err != nil {
			return nil, err
		}
		return b.Collector(), nil
	})
	return col, err
}

// bandwidths returns per-master bandwidth fractions after a run.
func bandwidths(col *stats.Collector) []float64 {
	out := make([]float64, col.N())
	for i := range out {
		out[i] = col.BandwidthFraction(i)
	}
	return out
}

// latencies returns per-master per-word latencies after a run.
func latencies(col *stats.Collector) []float64 {
	out := make([]float64, col.N())
	for i := range out {
		out[i] = col.PerWordLatency(i)
	}
	return out
}

// Detail is one master's distributional latency summary after a run:
// the per-word latency percentiles behind the mean the paper plots,
// plus the worst arrival-to-first-grant wait. The latency experiments
// carry a Detail per (point, master) so tables and CSV can distinguish
// "low and stable" from "merely low on average".
type Detail struct {
	Dist stats.Dist
	// MaxWait is the longest arrival-to-first-grant wait of any started
	// message, in cycles — collected on every run, no starvation
	// detector required.
	MaxWait int64
}

// details returns per-master latency distribution summaries after a run.
func details(col *stats.Collector) []Detail {
	out := make([]Detail, col.N())
	for i := range out {
		out[i] = Detail{Dist: col.LatencyDist(i), MaxWait: col.MaxStartWait(i)}
	}
	return out
}

// cell formats one distribution value for a detail table ("-" when the
// master completed no messages).
func cell(v float64) string {
	if v != v { // NaN
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}
