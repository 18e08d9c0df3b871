package bus_test

// Equivalence suite for the fast-forward engine: for every arbiter ×
// traffic class × bus configuration in the verification grid, a bus run
// with the event-driven fast path must leave the statistics collector
// (and all other observable state) bit-identical to the same bus run
// with the naive per-cycle loop. The collector fingerprint covers every
// accumulator including the order-sensitive floating-point histogram
// state, so any divergence in counts, timing, or event order fails.
//
// The grid itself — arbiters, traffic classes, bus configurations and
// the per-cell bus builder — lives in internal/check (matrix.go) and is
// shared with the invariant matrix and the golden fingerprint corpus,
// so a scheme added there is automatically covered here too.

import (
	"fmt"
	"strings"
	"testing"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/check"
	"lotterybus/internal/fault"
	"lotterybus/internal/stats"
	"lotterybus/internal/traffic"
)

const (
	eqMasters = check.MatrixMasters
	eqCycles  = 20000
)

// eqBuild assembles one bus instance for a grid cell.
func eqBuild(t *testing.T, bc check.BusConfig, am check.ArbMaker, gm check.GenMaker, disable bool) *bus.Bus {
	t.Helper()
	b, err := check.Build(bc, am, gm, disable)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// eqCompare runs naive and fast to completion and fails on any
// observable divergence.
func eqCompare(t *testing.T, naive, fast *bus.Bus) {
	t.Helper()
	if err := naive.Run(eqCycles); err != nil {
		t.Fatal(err)
	}
	if err := fast.Run(eqCycles); err != nil {
		t.Fatal(err)
	}
	eqSame(t, naive, fast)
}

// eqSame fails on any observable divergence between two finished runs.
func eqSame(t *testing.T, naive, fast *bus.Bus) {
	t.Helper()
	if naive.FastForwarded() > 0 {
		t.Fatalf("naive bus fast-forwarded %d cycles", naive.FastForwarded())
	}
	if n, f := naive.Cycle(), fast.Cycle(); n != f {
		t.Fatalf("cycle: naive %d, fast %d", n, f)
	}
	if n, f := naive.Collector().Fingerprint(), fast.Collector().Fingerprint(); n != f {
		t.Errorf("collector fingerprint: naive %#x, fast %#x", n, f)
		for m := 0; m < eqMasters; m++ {
			t.Logf("master %d: naive{%s} fast{%s}",
				m, naive.Collector().Summary(m), fast.Collector().Summary(m))
		}
	}
	for s := 0; s < naive.NumSlaves(); s++ {
		if n, f := naive.Slave(s).Words(), fast.Slave(s).Words(); n != f {
			t.Errorf("slave %d words: naive %d, fast %d", s, n, f)
		}
	}
	nc, fc := naive.Collector(), fast.Collector()
	counters := []struct {
		name string
		get  func(c *stats.Collector, m int) int64
	}{
		{"drops", (*stats.Collector).Drops},
		{"retries", (*stats.Collector).Retries},
		{"aborts", (*stats.Collector).Aborts},
		{"split timeouts", (*stats.Collector).SplitTimeouts},
		{"error words", (*stats.Collector).ErrorWords},
		{"starved cycles", (*stats.Collector).StarvedCycles},
		{"starvation events", (*stats.Collector).StarvationEvents},
		{"max pending wait", (*stats.Collector).MaxPendingWait},
	}
	for m := 0; m < eqMasters; m++ {
		for _, c := range counters {
			if n, f := c.get(nc, m), c.get(fc, m); n != f {
				t.Errorf("master %d %s: naive %d, fast %d", m, c.name, n, f)
			}
		}
		if n, f := naive.Master(m).Dropped(), fast.Master(m).Dropped(); n != f {
			t.Errorf("master %d dropped: naive %d, fast %d", m, n, f)
		}
		if n, f := naive.Master(m).LostWords(), fast.Master(m).LostWords(); n != f {
			t.Errorf("master %d lost words: naive %d, fast %d", m, n, f)
		}
		if n, f := naive.Master(m).QueueLen(), fast.Master(m).QueueLen(); n != f {
			t.Errorf("master %d queue depth: naive %d, fast %d", m, n, f)
		}
		if n, f := naive.Master(m).Outstanding(), fast.Master(m).Outstanding(); n != f {
			t.Errorf("master %d outstanding: naive %v, fast %v", m, n, f)
		}
	}
	if n, f := naive.Preemptions(), fast.Preemptions(); n != f {
		t.Errorf("preemptions: naive %d, fast %d", n, f)
	}
}

// TestFastForwardEquivalence proves the fast path bit-identical to the
// naive loop across the full arbiter × traffic × configuration grid.
func TestFastForwardEquivalence(t *testing.T) {
	for _, bc := range check.BusConfigs() {
		for _, am := range check.Arbiters() {
			for _, gm := range check.TrafficClasses() {
				t.Run(bc.Name+"/"+am.Name+"/"+gm.Name, func(t *testing.T) {
					naive := eqBuild(t, bc, am, gm, true)
					fast := eqBuild(t, bc, am, gm, false)
					eqCompare(t, naive, fast)
					// TDMA issues one-word grants (every cycle is an
					// arbitration event) and wastes enough slots under
					// periodic traffic to keep a master permanently
					// backlogged, so that combination legitimately has
					// no dead cycles to skip.
					tdmaPeriodic := gm.Name == "periodic" &&
						(am.Name == "tdma" || am.Name == "tdma-2level")
					if gm.FastForwards && !tdmaPeriodic && fast.FastForwarded() == 0 {
						t.Error("fast path skipped no cycles on a low-load run")
					}
				})
			}
		}
	}
}

// saturatingBus builds a grid cell whose four masters are all
// traffic.Saturating, two of them aimed at the io slave (a split slave in
// the split and tinyqueue configs). With overCap, master 3 keeps a
// backlog of 6 in a 3-message queue, so its top-up drops every cycle and
// it is due on every cycle.
func saturatingBus(t *testing.T, bc check.BusConfig, am check.ArbMaker, overCap, disable bool) *bus.Bus {
	t.Helper()
	b := bus.New(bc.Cfg)
	b.DisableFastForward = disable
	for i := 0; i < eqMasters; i++ {
		gen := &traffic.Saturating{Words: 8 + i, Slave: i % 2, Backlog: i % 3}
		var opts bus.MasterOpts
		if overCap && i == 3 {
			gen.Backlog, opts.QueueCap = 6, 3
		}
		opts.Tickets = uint64(i + 1)
		b.AddMaster(fmt.Sprintf("m%d", i), gen, opts)
	}
	b.AddSlave("mem", bus.SlaveOpts{WaitStates: bc.WaitStates})
	b.AddSlave("io", bus.SlaveOpts{SplitLatency: bc.SplitLatency})
	a, err := am.Make()
	if err != nil {
		t.Fatal(err)
	}
	b.SetArbiter(a)
	return b
}

// eqChunks splits eqCycles unevenly; the chunk at eqNaiveChunk runs on
// the naive loop, so the arrival cache must be re-primed after the naive
// loop has Ticked.
var eqChunks = []int64{1, 7, 4992, 3000, eqCycles - 1 - 7 - 4992 - 3000}

const eqNaiveChunk = 3

// eqRunChunked runs fast over eqChunks, the eqNaiveChunk-th chunk on the
// naive loop.
func eqRunChunked(t *testing.T, fast *bus.Bus) {
	t.Helper()
	for k, n := range eqChunks {
		fast.DisableFastForward = k == eqNaiveChunk
		if err := fast.Run(n); err != nil {
			t.Fatal(err)
		}
	}
	fast.DisableFastForward = false
}

// TestFastForwardSaturating proves the fast path bit-identical to the
// naive loop on saturated buses across every grid configuration and
// arbiter, clean and with each resilience arm, and that it actually
// fast-forwards them. The fast bus runs in uneven chunks with one naive
// chunk in the middle.
func TestFastForwardSaturating(t *testing.T) {
	for _, bc := range check.BusConfigs() {
		for ai, am := range check.Arbiters() {
			t.Run(bc.Name+"/"+am.Name, func(t *testing.T) {
				for _, overCap := range []bool{false, true} {
					naive := saturatingBus(t, bc, am, overCap, true)
					if err := naive.Run(eqCycles); err != nil {
						t.Fatal(err)
					}
					fast := saturatingBus(t, bc, am, overCap, false)
					eqRunChunked(t, fast)
					eqSame(t, naive, fast)
					if overCap && fast.Master(3).Dropped() == 0 {
						t.Error("over-cap master dropped nothing")
					}
					// TDMA grants one word at a time, so without wait
					// states there is no burst interior to batch.
					oneWordGrants := strings.HasPrefix(am.Name, "tdma") && bc.WaitStates == 0
					if !overCap && !oneWordGrants && fast.FastForwarded() == 0 {
						t.Error("fast path skipped no cycles on a saturated bus")
					}
				}
				for ri, ra := range resilienceArms() {
					seed := uint64(7000 + 100*ai + ri)
					armed := ra.arm(bc)
					naive := ra.attach(t, saturatingBus(t, armed, am, false, true), seed)
					if err := naive.Run(eqCycles); err != nil {
						t.Fatal(err)
					}
					fast := ra.attach(t, saturatingBus(t, armed, am, false, false), seed)
					eqRunChunked(t, fast)
					t.Run(ra.name, func(t *testing.T) {
						eqSame(t, naive, fast)
						oneWordGrants := strings.HasPrefix(am.Name, "tdma") && armed.WaitStates == 0 && armed.Cfg.ArbLatency == 0
						if !oneWordGrants && fast.FastForwarded() == 0 {
							t.Error("fast path skipped no cycles on a saturated bus")
						}
					})
				}
			})
		}
	}
}

// resilienceArm is one way of arming the resilience machinery on a grid
// bus: bus.Config knobs (retries, watchdog, starvation detector) plus an
// optional fault model.
type resilienceArm struct {
	name   string
	cfg    func(*bus.Config)
	faults func(seed uint64) fault.Config
}

// resilienceArms returns the arms the resilience equivalence tests
// sweep: slave and word errors under a tight retry limit, hung split
// requests freed by the watchdog, the starvation detector alone, a
// closed babble window, and everything at once.
func resilienceArms() []resilienceArm {
	errs := func(c *bus.Config) { c.RetryLimit, c.RetryBackoff = 3, 2 }
	// The watchdog arm also charges an arbitration cycle per grant, so
	// split address beats land inside batched stalls, not only on
	// executed cycles.
	watchdog := func(c *bus.Config) { c.SplitTimeout, c.ArbLatency = 30, max(c.ArbLatency, 1) }
	starve := func(c *bus.Config) { c.StarvationThreshold = 150 }
	babblers := []fault.Babbler{{Master: 1, Start: 4000, Stop: 9000, Load: 0.3, Words: 4, Slave: 1}}
	return []resilienceArm{
		{"errors", errs, func(seed uint64) fault.Config {
			return fault.Config{Seed: seed, SlaveError: 0.03, WordError: 0.02}
		}},
		{"watchdog", watchdog, func(seed uint64) fault.Config {
			return fault.Config{Seed: seed, SplitHang: 0.2}
		}},
		{"starvation", starve, nil},
		{"babble", nil, func(seed uint64) fault.Config {
			return fault.Config{Seed: seed, Babblers: babblers}
		}},
		{"all", func(c *bus.Config) { errs(c); watchdog(c); starve(c) }, func(seed uint64) fault.Config {
			return fault.Config{Seed: seed, SlaveError: 0.01, WordError: 0.01, SplitHang: 0.1, Babblers: babblers}
		}},
	}
}

// arm returns bc with the arm's bus.Config knobs applied.
func (ra resilienceArm) arm(bc check.BusConfig) check.BusConfig {
	if ra.cfg != nil {
		ra.cfg(&bc.Cfg)
	}
	return bc
}

// attach arms b's fault model (if the arm has one) from seed.
func (ra resilienceArm) attach(t *testing.T, b *bus.Bus, seed uint64) *bus.Bus {
	t.Helper()
	if ra.faults != nil {
		inj, err := fault.New(ra.faults(seed), b.NumMasters(), b.NumSlaves())
		if err != nil {
			t.Fatal(err)
		}
		b.SetFaultModel(inj)
	}
	return b
}

// TestFastForwardResilience proves the fast path bit-identical to the
// naive loop with the resilience machinery armed — fault rates and
// seeds, the watchdog, the starvation detector and babble windows —
// across every grid configuration and arbiter under low-load, high-load
// and mixed traffic. The fast bus runs in uneven chunks (one on the
// naive loop); both buses then disarm their model and run on, so
// backoffs and hung splits left by the armed Run must be honoured.
// Low-load runs must still fast-forward.
func TestFastForwardResilience(t *testing.T) {
	classes := check.TrafficClasses()
	gms := []check.GenMaker{classes[0], classes[1], classes[5]}
	const tail = 5000
	for _, bc := range check.BusConfigs() {
		for ai, am := range check.Arbiters() {
			for ri, ra := range resilienceArms() {
				for gi, gm := range gms {
					t.Run(bc.Name+"/"+am.Name+"/"+ra.name+"/"+gm.Name, func(t *testing.T) {
						seed := uint64(1000*ai + 10*ri + gi)
						armed := ra.arm(bc)
						naive := ra.attach(t, eqBuild(t, armed, am, gm, true), seed)
						if err := naive.Run(eqCycles); err != nil {
							t.Fatal(err)
						}
						fast := ra.attach(t, eqBuild(t, armed, am, gm, false), seed)
						eqRunChunked(t, fast)
						eqSame(t, naive, fast)
						if gm.FastForwards && fast.FastForwarded() == 0 {
							t.Error("fast path skipped no cycles on a low-load run")
						}
						naive.SetFaultModel(nil)
						fast.SetFaultModel(nil)
						if err := naive.Run(tail); err != nil {
							t.Fatal(err)
						}
						if err := fast.Run(tail); err != nil {
							t.Fatal(err)
						}
						eqSame(t, naive, fast)
					})
				}
			}
		}
	}
	for _, rc := range check.ResilienceCases() {
		t.Run("case/"+rc.Name, func(t *testing.T) {
			naive, err := rc.Build(true)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := rc.Build(false)
			if err != nil {
				t.Fatal(err)
			}
			if err := naive.Run(eqCycles); err != nil {
				t.Fatal(err)
			}
			eqRunChunked(t, fast)
			eqSame(t, naive, fast)
			if fast.FastForwarded() == 0 {
				t.Error("fast path skipped no cycles")
			}
		})
	}
}

// TestFastForwardChunkedRuns proves repeated short Run calls equal one
// long call on the fast path (state carries across Run boundaries).
func TestFastForwardChunkedRuns(t *testing.T) {
	bc := check.BusConfigs()[1]
	am := check.Arbiters()[6]       // static lottery
	gm := check.TrafficClasses()[2] // onoff
	oneShot := eqBuild(t, bc, am, gm, false)
	if err := oneShot.Run(eqCycles); err != nil {
		t.Fatal(err)
	}
	chunked := eqBuild(t, bc, am, gm, false)
	for done := int64(0); done < eqCycles; {
		step := int64(777)
		if done+step > eqCycles {
			step = eqCycles - done
		}
		if err := chunked.Run(step); err != nil {
			t.Fatal(err)
		}
		done += step
	}
	if a, b := oneShot.Collector().Fingerprint(), chunked.Collector().Fingerprint(); a != b {
		t.Fatalf("chunked runs diverge: one-shot %#x, chunked %#x", a, b)
	}
}

// TestFastForwardPreemptionFallsBack proves an active preemptor forces
// the naive loop and both configurations still agree.
func TestFastForwardPreemptionFallsBack(t *testing.T) {
	build := func(disable bool) *bus.Bus {
		b := bus.New(bus.Config{MaxBurst: 16, Preemption: true})
		b.DisableFastForward = disable
		for i := 0; i < eqMasters; i++ {
			g, err := traffic.NewBernoulli(0.05, traffic.Fixed(16), 0, uint64(300+i))
			if err != nil {
				t.Fatal(err)
			}
			b.AddMaster(fmt.Sprintf("m%d", i), g, bus.MasterOpts{})
		}
		b.AddSlave("mem", bus.SlaveOpts{})
		a, err := arb.NewPriority([]uint64{0, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		b.SetArbiter(a)
		return b
	}
	naive, fast := build(true), build(false)
	eqCompare(t, naive, fast)
	if fast.FastForwarded() != 0 {
		t.Fatalf("preemption-enabled bus fast-forwarded %d cycles", fast.FastForwarded())
	}
}

// TestFastForwardRecorderFallback proves a Recorder around a
// non-predictable generator degenerates to per-cycle execution (its
// conservative NextArrival pins the next event to the current cycle)
// while still producing identical results.
func TestFastForwardRecorderFallback(t *testing.T) {
	build := func(disable bool) *bus.Bus {
		b := bus.New(bus.Config{MaxBurst: 16})
		b.DisableFastForward = disable
		b.AddMaster("sat", traffic.NewRecorder(&traffic.Saturating{Words: 16}), bus.MasterOpts{})
		g, err := traffic.NewBernoulli(0.1, traffic.Fixed(8), 0, 77)
		if err != nil {
			t.Fatal(err)
		}
		b.AddMaster("bern", g, bus.MasterOpts{})
		b.AddSlave("mem", bus.SlaveOpts{})
		a, err := arb.NewRoundRobin(2)
		if err != nil {
			t.Fatal(err)
		}
		b.SetArbiter(a)
		return b
	}
	naive, fast := build(true), build(false)
	if err := naive.Run(5000); err != nil {
		t.Fatal(err)
	}
	if err := fast.Run(5000); err != nil {
		t.Fatal(err)
	}
	if n, f := naive.Collector().Fingerprint(), fast.Collector().Fingerprint(); n != f {
		t.Fatalf("recorder fallback diverges: naive %#x, fast %#x", n, f)
	}
}
