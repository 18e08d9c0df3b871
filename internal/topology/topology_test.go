package topology

import (
	"fmt"
	"testing"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/core"
	"lotterybus/internal/prng"
	"lotterybus/internal/traffic"
)

// buildPair wires two single-arbiter buses: bus A has one CPU master,
// one local memory (slave 0) and the bridge target (slave 1); bus B has
// the bridge master (index 0) plus an optional local master, and a
// remote memory (slave 0).
func buildPair(t *testing.T, withLocalB bool) (*System, *Bridge, *bus.Bus, *bus.Bus) {
	t.Helper()
	sys := NewSystem()

	a := bus.New(bus.Config{MaxBurst: 16})
	a.AddMaster("cpu", nil, bus.MasterOpts{})
	a.AddSlave("local-mem", bus.SlaveOpts{})
	bridgeSlave := a.AddSlave("bridge", bus.SlaveOpts{})
	pa, _ := arb.NewPriority([]uint64{1})
	a.SetArbiter(pa)

	b := bus.New(bus.Config{MaxBurst: 16})
	b.AddMaster("bridge", nil, bus.MasterOpts{Tickets: 2})
	if withLocalB {
		b.AddMaster("dsp", nil, bus.MasterOpts{Tickets: 2})
	}
	b.AddSlave("remote-mem", bus.SlaveOpts{})
	if withLocalB {
		mgr, err := core.NewStaticLottery(core.StaticConfig{
			Tickets: []uint64{2, 2},
			Source:  prng.NewXorShift64Star(3),
		})
		if err != nil {
			t.Fatal(err)
		}
		b.SetArbiter(arb.NewStaticLottery(mgr))
	} else {
		pb, _ := arb.NewPriority([]uint64{1})
		b.SetArbiter(pb)
	}

	ai := sys.AddBus("A", a)
	bi := sys.AddBus("B", b)
	br, err := sys.Connect(ai, bi, BridgeConfig{
		SrcSlave:  bridgeSlave,
		DstMaster: 0,
		DstSlave:  0,
		Delay:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, br, a, b
}

func TestConnectValidation(t *testing.T) {
	sys := NewSystem()
	a := bus.New(bus.Config{})
	a.AddMaster("m", nil, bus.MasterOpts{})
	a.AddSlave("s", bus.SlaveOpts{})
	ai := sys.AddBus("A", a)

	b := bus.New(bus.Config{})
	b.AddMaster("bridge", nil, bus.MasterOpts{})
	b.AddSlave("s", bus.SlaveOpts{})
	bi := sys.AddBus("B", b)

	if _, err := sys.Connect(ai, ai, BridgeConfig{}); err == nil {
		t.Fatal("self-bridge accepted")
	}
	if _, err := sys.Connect(5, bi, BridgeConfig{}); err == nil {
		t.Fatal("bad index accepted")
	}
	if _, err := sys.Connect(ai, bi, BridgeConfig{DstMaster: 7}); err == nil {
		t.Fatal("bad master accepted")
	}
	if _, err := sys.Connect(ai, bi, BridgeConfig{SrcSlave: 9}); err == nil {
		t.Fatal("bad slave accepted")
	}
	if _, err := sys.Connect(ai, bi, BridgeConfig{Delay: -1}); err == nil {
		t.Fatal("negative delay accepted")
	}
	// An out-of-range target slave used to pass here and panic at the
	// first drain inside Run ("addressed invalid slave").
	if _, err := sys.Connect(ai, bi, BridgeConfig{DstSlave: 1}); err == nil {
		t.Fatal("bad target slave accepted")
	}
	if _, err := sys.Connect(ai, bi, BridgeConfig{DstSlave: -1}); err == nil {
		t.Fatal("negative target slave accepted")
	}
	// A negative FIFO cap used to be accepted and silently drop every
	// message.
	if _, err := sys.Connect(ai, bi, BridgeConfig{FifoCap: -1}); err == nil {
		t.Fatal("negative FIFO cap accepted")
	}
	if len(sys.Bridges()) != 0 {
		t.Fatalf("rejected configs installed %d bridges", len(sys.Bridges()))
	}
}

func TestRunWithoutBusesFails(t *testing.T) {
	if err := NewSystem().Run(5); err == nil {
		t.Fatal("empty system ran")
	}
}

func TestBridgeForwardsEndToEnd(t *testing.T) {
	sys, br, a, b := buildPair(t, false)
	// CPU sends one 4-word message to the bridge at cycle 0.
	a.Inject(0, 4, 1)
	if err := sys.Run(50); err != nil {
		t.Fatal(err)
	}
	if br.Forwarded() != 1 {
		t.Fatalf("forwarded %d", br.Forwarded())
	}
	// Timing: A-side transfer cycles 0-3 (completion 3), +2 delay ->
	// eligible at 5, injected at cycle 5, B-side transfer 5-8. End to
	// end = 8 - 0 + 1 = 9.
	if got := br.AvgEndToEndLatency(); got != 9 {
		t.Fatalf("end-to-end latency %v, want 9", got)
	}
	if w := b.Collector().Words(0); w != 4 {
		t.Fatalf("remote words %d", w)
	}
	if br.Queued() != 0 {
		t.Fatalf("bridge still holds %d", br.Queued())
	}
}

func TestBridgeLocalTrafficUnaffected(t *testing.T) {
	sys, br, a, _ := buildPair(t, false)
	// Messages to the local memory must not cross the bridge.
	a.Inject(0, 4, 0)
	if err := sys.Run(30); err != nil {
		t.Fatal(err)
	}
	if br.Forwarded() != 0 || br.Queued() != 0 {
		t.Fatalf("local traffic crossed the bridge: fwd=%d queued=%d", br.Forwarded(), br.Queued())
	}
}

func TestBridgeContendsOnRemoteBus(t *testing.T) {
	// With a saturating local master on bus B and a 50/50 lottery, the
	// bridge's transactions still get through (no starvation).
	sys, br, a, b := buildPair(t, true)
	// Local DSP saturates bus B.
	stop := int64(4000)
	b.OnCycle = func(cycle int64, bb *bus.Bus) {
		if bb.Master(1).QueueLen() < 2 {
			bb.Inject(1, 8, 0)
		}
	}
	// CPU streams messages across the bridge.
	a.OnCycle = func(cycle int64, ab *bus.Bus) {
		if cycle < stop && cycle%20 == 0 {
			ab.Inject(0, 4, 1)
		}
	}
	if err := sys.Run(6000); err != nil {
		t.Fatal(err)
	}
	if br.Forwarded() < 150 {
		t.Fatalf("bridge starved: forwarded %d of ~200", br.Forwarded())
	}
	// The lottery must have kept the remote bus shared.
	bwBridge := b.Collector().BandwidthFraction(0)
	bwLocal := b.Collector().BandwidthFraction(1)
	if bwBridge == 0 || bwLocal == 0 {
		t.Fatalf("remote sharing broken: bridge %v local %v", bwBridge, bwLocal)
	}
}

func TestBridgeFifoOverflowDrops(t *testing.T) {
	sys := NewSystem()
	a := bus.New(bus.Config{MaxBurst: 16})
	a.AddMaster("cpu", nil, bus.MasterOpts{})
	bs := a.AddSlave("bridge", bus.SlaveOpts{})
	pa, _ := arb.NewPriority([]uint64{1})
	a.SetArbiter(pa)

	b := bus.New(bus.Config{MaxBurst: 16})
	b.AddMaster("bridge", nil, bus.MasterOpts{})
	b.AddSlave("mem", bus.SlaveOpts{WaitStates: 63}) // glacial remote bus
	pb, _ := arb.NewPriority([]uint64{1})
	b.SetArbiter(pb)

	ai := sys.AddBus("A", a)
	bi := sys.AddBus("B", b)
	br, err := sys.Connect(ai, bi, BridgeConfig{SrcSlave: bs, DstMaster: 0, DstSlave: 0, FifoCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.OnCycle = func(cycle int64, ab *bus.Bus) {
		if ab.Master(0).QueueLen() < 2 {
			ab.Inject(0, 1, bs)
		}
	}
	if err := sys.Run(2000); err != nil {
		t.Fatal(err)
	}
	if br.Dropped() == 0 {
		t.Fatal("overloaded bridge dropped nothing")
	}
	if br.Queued() > 2 {
		t.Fatalf("fifo cap violated: %d", br.Queued())
	}
}

// TestBridgeStatsSnapshot is the regression test for Bridge.Stats():
// before it existed the drop counter and the raw end-to-end sums were
// unreachable, so replica aggregation and observability recording could
// not see bridge traffic. The snapshot must agree with the individual
// accessors on both the forwarding and the overflow-drop path.
func TestBridgeStatsSnapshot(t *testing.T) {
	sys := NewSystem()
	a := bus.New(bus.Config{MaxBurst: 16})
	a.AddMaster("cpu", nil, bus.MasterOpts{})
	bs := a.AddSlave("bridge", bus.SlaveOpts{})
	pa, _ := arb.NewPriority([]uint64{1})
	a.SetArbiter(pa)

	b := bus.New(bus.Config{MaxBurst: 16})
	b.AddMaster("bridge", nil, bus.MasterOpts{})
	b.AddSlave("mem", bus.SlaveOpts{WaitStates: 63})
	pb, _ := arb.NewPriority([]uint64{1})
	b.SetArbiter(pb)

	ai := sys.AddBus("A", a)
	bi := sys.AddBus("B", b)
	br, err := sys.Connect(ai, bi, BridgeConfig{SrcSlave: bs, DstMaster: 0, DstSlave: 0, FifoCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.OnCycle = func(cycle int64, ab *bus.Bus) {
		if ab.Master(0).QueueLen() < 2 {
			ab.Inject(0, 1, bs)
		}
	}
	if err := sys.Run(2000); err != nil {
		t.Fatal(err)
	}
	st := br.Stats()
	if st.Forwarded != br.Forwarded() {
		t.Errorf("snapshot forwarded %d, accessor %d", st.Forwarded, br.Forwarded())
	}
	if st.Dropped != br.Dropped() || st.Dropped == 0 {
		t.Errorf("snapshot dropped %d, accessor %d (want nonzero)", st.Dropped, br.Dropped())
	}
	if st.Queued != br.Queued() {
		t.Errorf("snapshot queued %d, accessor %d", st.Queued, br.Queued())
	}
	if st.E2EMessages != st.Forwarded {
		t.Errorf("e2e messages %d != forwarded %d", st.E2EMessages, st.Forwarded)
	}
	if st.E2EMessages > 0 {
		mean := float64(st.E2ELatencySum) / float64(st.E2EMessages)
		if mean != br.AvgEndToEndLatency() {
			t.Errorf("raw sums give mean %v, accessor %v", mean, br.AvgEndToEndLatency())
		}
		if mean < 1 {
			t.Errorf("end-to-end latency %v below one cycle", mean)
		}
	} else {
		t.Error("no end-to-end messages measured")
	}
}

func TestLockStepCycleCount(t *testing.T) {
	sys, _, a, b := buildPair(t, false)
	if err := sys.Run(123); err != nil {
		t.Fatal(err)
	}
	if sys.Cycle() != 123 || a.Cycle() != 123 || b.Cycle() != 123 {
		t.Fatalf("cycles diverged: sys=%d a=%d b=%d", sys.Cycle(), a.Cycle(), b.Cycle())
	}
}

// runLockStep is the executable specification of System.Run: the
// whole-system lock-step loop, which every cycle drains every bridge and
// then runs every bus one cycle in index order. Run's per-bus schedules
// must reproduce it exactly.
func runLockStep(s *System, n int64) error {
	if len(s.buses) == 0 {
		return fmt.Errorf("topology: no buses")
	}
	for k := int64(0); k < n; k++ {
		for _, br := range s.bridges {
			br.drain(s.cycle)
		}
		for i, b := range s.buses {
			if err := b.Run(1); err != nil {
				return fmt.Errorf("topology: bus %s: %w", s.names[i], err)
			}
		}
		s.cycle++
	}
	return nil
}

// miniCMP builds a cmp64-shaped crossbar in miniature: 8 cores homed
// four apiece on two memory ports, every core also reaching a shared
// directory port, tickets 1..4 by core index mod 4.
func miniCMP(t *testing.T) *Crossbar {
	t.Helper()
	const cores, memPorts = 8, 2
	masters := make([]CrossbarMaster, 0, cores)
	for i := 0; i < cores; i++ {
		mem, err := traffic.NewBernoulli(0.2, traffic.Fixed(8), 0, prng.Derive(5, fmt.Sprintf("core%d/mem", i)))
		if err != nil {
			t.Fatal(err)
		}
		dir, err := traffic.NewBernoulli(0.04, traffic.Fixed(2), 0, prng.Derive(5, fmt.Sprintf("core%d/dir", i)))
		if err != nil {
			t.Fatal(err)
		}
		masters = append(masters, CrossbarMaster{
			Name:    fmt.Sprintf("core%d", i),
			Tickets: uint64(i%4) + 1,
			Traffic: map[int]Generator{i / (cores / memPorts): mem, memPorts: dir},
		})
	}
	x, err := NewCrossbar(CrossbarConfig{Ports: []string{"mem0", "mem1", "dir"}, Masters: masters, MaxBurst: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// fourSegmentChain builds a 4-segment chain with zero-delay, 2-entry
// bridges, so the bridge FIFOs overflow.
func fourSegmentChain(t *testing.T) *System {
	t.Helper()
	segs := make([]ChainSegment, 4)
	links := make([]BridgeConfig, 3)
	for s := range segs {
		tag := fmt.Sprintf("seg%d", s)
		segs[s] = ChainSegment{Name: tag, Bus: chainSegmentBus(t, 9, tag, 3, s > 0)}
		if s > 0 {
			links[s-1] = BridgeConfig{SrcSlave: 1, DstMaster: 0, DstSlave: 0, Delay: 0, FifoCap: 2}
		}
	}
	sys, _, err := NewChain(segs, links)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// fabricCase is one System shape of the schedule-equivalence suite.
type fabricCase struct {
	name string
	// build returns a fresh system and, when a hook records what it
	// observes, the record.
	build func(t *testing.T) (*System, *[]int64)
	// chunks are the Run lengths, applied in order.
	chunks []int64
	// fast marks the buses that must reach the fast-forward engine
	// (FastForwarded() > 0); every other bus must report 0.
	fast map[int]bool
	// drops demands that some bridge overflowed.
	drops bool
}

func fabricCases() []fabricCase {
	crossbar := func(t *testing.T) (*System, *[]int64) { return miniCMP(t).System(), nil }
	chain := func(t *testing.T) (*System, *[]int64) { return fourSegmentChain(t), nil }
	allFast := map[int]bool{0: true, 1: true, 2: true}
	return []fabricCase{
		{name: "crossbar", build: crossbar, chunks: []int64{4000}, fast: allFast},
		{name: "chain", build: chain, chunks: []int64{4000}, drops: true},
		{name: "mixed", chunks: []int64{4000}, fast: map[int]bool{1: true},
			build: func(t *testing.T) (*System, *[]int64) {
				// A bridged pair at indices 0 and 2 straddles a bus no
				// bridge or hook couples to anything.
				sys := NewSystem()
				a := sys.AddBus("A", chainSegmentBus(t, 13, "A", 3, false))
				sys.AddBus("solo", chainSegmentBus(t, 13, "solo", 3, false))
				b := sys.AddBus("B", chainSegmentBus(t, 13, "B", 2, true))
				if _, err := sys.Connect(a, b, BridgeConfig{SrcSlave: 1, DstMaster: 0, DstSlave: 0, Delay: 3, FifoCap: 8}); err != nil {
					t.Fatal(err)
				}
				return sys, nil
			}},
		{name: "sibling-oncycle", chunks: []int64{4000},
			build: func(t *testing.T) (*System, *[]int64) {
				// Port 0's hook reads port 2's cycle: whole-system
				// lock-step shows it the cycle port 0 is on.
				sys := miniCMP(t).System()
				var seen []int64
				sys.Bus(0).OnCycle = func(int64, *bus.Bus) { seen = append(seen, sys.Bus(2).Cycle()) }
				return sys, &seen
			}},
		{name: "sibling-onowner", chunks: []int64{4000},
			build: func(t *testing.T) (*System, *[]int64) {
				sys := miniCMP(t).System()
				var seen []int64
				sys.Bus(2).OnOwner = func(_ int64, m int) { seen = append(seen, int64(m), sys.Bus(0).Cycle()) }
				return sys, &seen
			}},
		{name: "crossbar-chunks", build: crossbar, chunks: []int64{1, 7, 0, 333, -5, 1, 2658}, fast: allFast},
		{name: "chain-chunks", build: chain, chunks: []int64{1, 7, 0, 333, -5, 1, 2658}, drops: true},
	}
}

// TestRunMatchesLockStep proves System.Run reproduces the whole-system
// lock-step loop bus for bus — collector fingerprints, cycle counts,
// bridge counters and hook observations — on every schedule it picks,
// and that n <= 0 leaves the system untouched.
func TestRunMatchesLockStep(t *testing.T) {
	for _, fc := range fabricCases() {
		t.Run(fc.name, func(t *testing.T) {
			ref, refSeen := fc.build(t)
			got, gotSeen := fc.build(t)
			var total int64
			for _, n := range fc.chunks {
				if err := got.Run(n); err != nil {
					t.Fatal(err)
				}
				if n > 0 {
					total += n
				}
				if got.Cycle() != total {
					t.Fatalf("after Run(%d): system cycle %d, want %d", n, got.Cycle(), total)
				}
			}
			if err := runLockStep(ref, total); err != nil {
				t.Fatal(err)
			}
			fp := func(s *System) []uint64 {
				var out []uint64
				for i := 0; i < s.NumBuses(); i++ {
					out = append(out, s.Bus(i).Collector().Fingerprint(), uint64(s.Bus(i).Cycle()))
				}
				return out
			}
			before := fp(got)
			for _, n := range []int64{0, -5} {
				if err := got.Run(n); err != nil {
					t.Fatalf("Run(%d): %v", n, err)
				}
			}
			if got.Cycle() != total || fmt.Sprint(fp(got)) != fmt.Sprint(before) {
				t.Fatal("Run(0) or Run(-5) advanced the system")
			}
			if fmt.Sprint(before) != fmt.Sprint(fp(ref)) {
				t.Errorf("buses diverged from lock-step:\n got %x\nwant %x", before, fp(ref))
			}
			for i := 0; i < got.NumBuses(); i++ {
				if c := got.Bus(i).Cycle(); c != total {
					t.Errorf("bus %s at cycle %d, want %d", got.BusName(i), c, total)
				}
				if ff := got.Bus(i).FastForwarded(); (ff > 0) != fc.fast[i] {
					t.Errorf("bus %s fast-forwarded %d cycles, want fast engine %v", got.BusName(i), ff, fc.fast[i])
				}
			}
			dropped := int64(0)
			for j, br := range got.Bridges() {
				st, want := br.Stats(), ref.Bridges()[j].Stats()
				if st != want {
					t.Errorf("bridge %s stats %+v, lock-step %+v", br.Name(), st, want)
				}
				if st.WordsIn == 0 {
					t.Errorf("bridge %s carried no words; the case is vacuous", br.Name())
				}
				dropped += st.Dropped
			}
			if fc.drops && dropped == 0 {
				t.Error("no bridge overflowed; the case is vacuous")
			}
			if refSeen != nil {
				if len(*gotSeen) == 0 || fmt.Sprint(*gotSeen) != fmt.Sprint(*refSeen) {
					t.Errorf("hook observations diverged from lock-step (%d vs %d records)", len(*gotSeen), len(*refSeen))
				}
			}
		})
	}
}
