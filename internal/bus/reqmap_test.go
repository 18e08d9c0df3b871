package bus_test

// Request-map equivalence: the bus keeps its request map as queues fill
// and empty and as splits and backoffs come and go, instead of scanning
// every master each cycle. These tests wrap each arbiter so that at
// every arbitration, on both engines, the kept map is compared with a
// from-scratch scan (bus.CheckRequestMap, defined in export_test.go).

import (
	"fmt"
	"testing"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/check"
	"lotterybus/internal/core"
	"lotterybus/internal/prng"
	"lotterybus/internal/traffic"
)

// mapCheck is an arbiter wrapper that checks the bus's request map
// before every arbitration it passes on.
type mapCheck struct {
	bus.Arbiter
	t      *testing.T
	b      *bus.Bus
	checks int
}

func (c *mapCheck) Arbitrate(cycle int64, req bus.Requests) (bus.Grant, bool) {
	c.check(cycle)
	return c.Arbiter.Arbitrate(cycle, req)
}

func (c *mapCheck) check(cycle int64) {
	c.t.Helper()
	if err := c.b.CheckRequestMap(); err != nil {
		c.t.Fatalf("cycle %d: %v", cycle, err)
	}
	c.checks++
}

// preemptCheck is mapCheck for a Preemptor, which it stays.
type preemptCheck struct {
	*mapCheck
	pre bus.Preemptor
}

func (c preemptCheck) Preempt(cycle int64, owner int, req bus.Requests) (bus.Grant, bool) {
	c.check(cycle)
	return c.pre.Preempt(cycle, owner, req)
}

// watch wraps b's arbiter in a request-map check and returns the
// wrapper, whose checks count the arbitrations it checked.
func watch(t *testing.T, b *bus.Bus) *mapCheck {
	c := &mapCheck{Arbiter: b.Arbiter(), t: t, b: b}
	if p, ok := b.Arbiter().(bus.Preemptor); ok {
		b.SetArbiter(preemptCheck{c, p})
	} else {
		b.SetArbiter(c)
	}
	return c
}

// runChecked runs b over eqChunks, the eqNaiveChunk-th chunk on the
// naive loop when fast is set and every chunk on it otherwise, checking
// the request map at each Run boundary too.
func runChecked(t *testing.T, b *bus.Bus, fast bool) {
	t.Helper()
	for k, n := range eqChunks {
		b.DisableFastForward = !fast || k == eqNaiveChunk
		if err := b.Run(n); err != nil {
			t.Fatal(err)
		}
		if err := b.CheckRequestMap(); err != nil {
			t.Fatalf("after chunk %d: %v", k, err)
		}
	}
	b.DisableFastForward = false
}

// checkBoth runs the naive and fast twins built by build with the map
// checked throughout, and requires them to agree.
func checkBoth(t *testing.T, build func(disable bool) *bus.Bus) {
	t.Helper()
	naive, fast := build(true), build(false)
	nc, fc := watch(t, naive), watch(t, fast)
	runChecked(t, naive, false)
	runChecked(t, fast, true)
	if nc.checks == 0 || fc.checks == 0 {
		t.Fatalf("no arbitration checked (naive %d, fast %d)", nc.checks, fc.checks)
	}
	eqSame(t, naive, fast)
}

// TestRequestMapGrid checks the kept map across the verification grid:
// every bus configuration (split slaves included), arbiter and traffic
// class, plus the saturated buses.
func TestRequestMapGrid(t *testing.T) {
	for _, bc := range check.BusConfigs() {
		for _, am := range check.Arbiters() {
			for _, gm := range check.TrafficClasses() {
				t.Run(bc.Name+"/"+am.Name+"/"+gm.Name, func(t *testing.T) {
					checkBoth(t, func(disable bool) *bus.Bus { return eqBuild(t, bc, am, gm, disable) })
				})
			}
			t.Run(bc.Name+"/"+am.Name+"/saturating", func(t *testing.T) {
				checkBoth(t, func(disable bool) *bus.Bus { return saturatingBus(t, bc, am, true, disable) })
			})
		}
	}
}

// TestRequestMapResilience checks the kept map with each resilience arm
// (faults, backoff, watchdog, starvation, a babble window) on every
// configuration and arbiter, under busy and mixed traffic.
func TestRequestMapResilience(t *testing.T) {
	classes := check.TrafficClasses()
	for _, bc := range check.BusConfigs() {
		for ai, am := range check.Arbiters() {
			for ri, ra := range resilienceArms() {
				for gi, gm := range []check.GenMaker{classes[1], classes[5]} {
					t.Run(bc.Name+"/"+am.Name+"/"+ra.name+"/"+gm.Name, func(t *testing.T) {
						seed := uint64(5000 + 1000*ai + 10*ri + gi)
						armed := ra.arm(bc)
						checkBoth(t, func(disable bool) *bus.Bus {
							return ra.attach(t, eqBuild(t, armed, am, gm, disable), seed)
						})
					})
				}
			}
		}
	}
}

// TestRequestMapInject checks the kept map on masters fed only by
// Inject between Runs, some of it to a split slave and some in a cycle
// whose map was already loaded, with pre-emption on (the naive loop
// reads the map on every cycle of a burst).
func TestRequestMapInject(t *testing.T) {
	for _, preempt := range []bool{false, true} {
		t.Run(fmt.Sprintf("preempt=%v", preempt), func(t *testing.T) {
			build := func(disable bool) *bus.Bus {
				b := bus.New(bus.Config{MaxBurst: 4, Preemption: preempt})
				b.DisableFastForward = disable
				for i := 0; i < eqMasters; i++ {
					b.AddMaster(fmt.Sprintf("m%d", i), nil, bus.MasterOpts{Tickets: uint64(i + 1)})
				}
				b.AddSlave("mem", bus.SlaveOpts{WaitStates: 1})
				b.AddSlave("io", bus.SlaveOpts{SplitLatency: 9})
				a, err := arb.NewPriority([]uint64{0, 1, 2, 3})
				if err != nil {
					t.Fatal(err)
				}
				b.SetArbiter(a)
				return b
			}
			naive, fast := build(true), build(false)
			nc, fc := watch(t, naive), watch(t, fast)
			src := prng.NewXorShift64Star(11)
			for k := 0; k < 400; k++ {
				m, words, slave := prng.IntRange(src, 0, eqMasters-1), prng.IntRange(src, 1, 9), prng.IntRange(src, 0, 1)
				n := int64(prng.IntRange(src, 1, 12))
				for _, b := range []*bus.Bus{naive, fast} {
					b.Inject(m, words, slave)
					if err := b.Run(n); err != nil {
						t.Fatal(err)
					}
					if err := b.CheckRequestMap(); err != nil {
						t.Fatalf("step %d: %v", k, err)
					}
					// A second Inject in the cycle the check just loaded.
					b.Inject((m+1)%eqMasters, words, 0)
					if err := b.CheckRequestMap(); err != nil {
						t.Fatalf("step %d, second inject: %v", k, err)
					}
				}
			}
			if nc.checks == 0 || fc.checks == 0 {
				t.Fatal("no arbitration checked")
			}
			eqSame(t, naive, fast)
		})
	}
}

// wideBus builds an n-master bus shaped like the cmp64 directory port
// (Bernoulli masters at 0.012 words/cycle, 2-word messages, tickets
// 1..4 by master index mod 4), with every fifth master aimed at a split
// slave, arbitrated by a static lottery or round-robin.
func wideBus(t testing.TB, n int, lottery bool, cfg bus.Config, disable bool) *bus.Bus {
	b := bus.New(cfg)
	b.DisableFastForward = disable
	for i := 0; i < n; i++ {
		g, err := traffic.NewBernoulli(0.012, traffic.Fixed(2), min(i%5, 1), uint64(900+i))
		if err != nil {
			t.Fatal(err)
		}
		b.AddMaster(fmt.Sprintf("m%d", i), g, bus.MasterOpts{Tickets: uint64(i%4 + 1)})
	}
	b.AddSlave("mem", bus.SlaveOpts{WaitStates: 1})
	b.AddSlave("io", bus.SlaveOpts{SplitLatency: 15})
	var a bus.Arbiter
	if lottery {
		tickets := make([]uint64, n)
		for i := range tickets {
			tickets[i] = uint64(i%4 + 1)
		}
		mgr, err := core.NewStaticLottery(core.StaticConfig{Tickets: tickets, Source: prng.NewXorShift64Star(42)})
		if err != nil {
			t.Fatal(err)
		}
		a = arb.NewStaticLottery(mgr)
	} else {
		rr, err := arb.NewRoundRobin(n)
		if err != nil {
			t.Fatal(err)
		}
		a = rr
	}
	b.SetArbiter(a)
	return b
}

// TestRequestMapWide checks the kept map around the mask-word boundary
// (63, 64, 65 and 96 masters), clean and with every resilience arm on.
func TestRequestMapWide(t *testing.T) {
	arms := resilienceArms()
	all := arms[len(arms)-1]
	for _, n := range []int{63, 64, 65, 96} {
		for _, lottery := range []bool{true, false} {
			for _, armed := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/lottery=%v/armed=%v", n, lottery, armed), func(t *testing.T) {
					checkBoth(t, func(disable bool) *bus.Bus {
						if !armed {
							return wideBus(t, n, lottery, bus.Config{MaxBurst: 16}, disable)
						}
						bc := all.arm(check.BusConfig{Cfg: bus.Config{MaxBurst: 16}})
						return all.attach(t, wideBus(t, n, lottery, bc.Cfg, disable), uint64(n))
					})
				})
			}
		}
	}
}
