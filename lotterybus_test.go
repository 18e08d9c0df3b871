package lotterybus

import (
	"math"
	"strings"
	"testing"
)

func newSaturated(t *testing.T, weights []uint64) *System {
	t.Helper()
	sys := NewSystem(Config{Seed: 5})
	sys.AddSlave("mem", 0)
	for i, w := range weights {
		sys.AddMaster(string(rune('a'+i)), w, SaturatingTraffic(16, 0))
	}
	return sys
}

func TestLotteryProportionalShares(t *testing.T) {
	sys := newSaturated(t, []uint64{1, 2, 3, 4})
	if err := sys.UseLottery(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(200000); err != nil {
		t.Fatal(err)
	}
	r := sys.Report()
	if r.Arbiter != "lottery-static" {
		t.Fatalf("arbiter %q", r.Arbiter)
	}
	for i, want := range []float64{0.1, 0.2, 0.3, 0.4} {
		if math.Abs(r.Masters[i].BandwidthFraction-want) > 0.02 {
			t.Fatalf("share %d = %v, want %v", i, r.Masters[i].BandwidthFraction, want)
		}
	}
	if r.Utilization != 1.0 {
		t.Fatalf("utilization %v", r.Utilization)
	}
}

func TestPrioritySelection(t *testing.T) {
	sys := newSaturated(t, []uint64{1, 2})
	if err := sys.UsePriority(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(10000); err != nil {
		t.Fatal(err)
	}
	r := sys.Report()
	if r.Masters[1].BandwidthFraction < 0.99 {
		t.Fatalf("priority winner share %v", r.Masters[1].BandwidthFraction)
	}
}

func TestTDMASharesFollowWeights(t *testing.T) {
	sys := newSaturated(t, []uint64{1, 3})
	if err := sys.UseTDMA(4, true); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(100000); err != nil {
		t.Fatal(err)
	}
	r := sys.Report()
	if math.Abs(r.Masters[0].BandwidthFraction-0.25) > 0.02 {
		t.Fatalf("tdma shares %v", r.Masters)
	}
}

func TestRoundRobinAndTokenRing(t *testing.T) {
	for _, use := range []func(*System) error{(*System).UseRoundRobin, (*System).UseTokenRing} {
		sys := newSaturated(t, []uint64{2, 2})
		if err := use(sys); err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(50000); err != nil {
			t.Fatal(err)
		}
		r := sys.Report()
		if math.Abs(r.Masters[0].BandwidthFraction-r.Masters[1].BandwidthFraction) > 0.02 {
			t.Fatalf("unequal shares: %v", r.Masters)
		}
	}
}

func TestDynamicLotteryReprovisioning(t *testing.T) {
	sys := newSaturated(t, []uint64{9, 1})
	if err := sys.UseDynamicLottery(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(100000); err != nil {
		t.Fatal(err)
	}
	before := sys.Report().Masters[0].Words
	sys.SetWeight(0, 1)
	sys.SetWeight(1, 9)
	if err := sys.Run(100000); err != nil {
		t.Fatal(err)
	}
	r := sys.Report()
	share2 := float64(r.Masters[0].Words-before) / 100000
	if math.Abs(share2-0.1) > 0.03 {
		t.Fatalf("post-reprovision share %v, want ~0.1", share2)
	}
	if sys.Weight(1) != 9 {
		t.Fatalf("weight readback %d", sys.Weight(1))
	}
}

func TestCompensatedLotteryMixedSizes(t *testing.T) {
	sys := NewSystem(Config{Seed: 11})
	mem := sys.AddSlave("mem", 0)
	sys.AddMaster("small", 1, SaturatingTraffic(2, mem))
	sys.AddMaster("large", 1, SaturatingTraffic(16, mem))
	if err := sys.UseCompensatedLottery(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(200000); err != nil {
		t.Fatal(err)
	}
	r := sys.Report()
	if r.Arbiter != "lottery-compensated" {
		t.Fatalf("arbiter %q", r.Arbiter)
	}
	if math.Abs(r.Masters[0].BandwidthFraction-0.5) > 0.04 {
		t.Fatalf("compensated shares %v / %v",
			r.Masters[0].BandwidthFraction, r.Masters[1].BandwidthFraction)
	}
}

func TestInjectAndReportFields(t *testing.T) {
	sys := NewSystem(Config{})
	sys.AddSlave("mem", 0)
	sys.AddMaster("cpu", 1, nil)
	if err := sys.UseLottery(); err != nil {
		t.Fatal(err)
	}
	if !sys.Inject(0, 8, 0) {
		t.Fatal("inject rejected")
	}
	if err := sys.Run(20); err != nil {
		t.Fatal(err)
	}
	r := sys.Report()
	m := r.Masters[0]
	if m.Messages != 1 || m.Words != 8 {
		t.Fatalf("report %+v", m)
	}
	if math.Abs(m.PerWordLatency-1.0) > 1e-9 {
		t.Fatalf("latency %v", m.PerWordLatency)
	}
	if m.AvgMessageLatency != 8 {
		t.Fatalf("message latency %v", m.AvgMessageLatency)
	}
	out := r.String()
	for _, want := range []string{"cpu", "lottery-static", "cyc/word"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report rendering missing %q:\n%s", want, out)
		}
	}
}

func TestOnCycleHook(t *testing.T) {
	sys := newSaturated(t, []uint64{1, 1})
	if err := sys.UseDynamicLottery(); err != nil {
		t.Fatal(err)
	}
	calls := 0
	sys.OnCycle(func(cycle int64, s *System) {
		calls++
		s.SetWeight(0, uint64(cycle%7)+1)
	})
	if err := sys.Run(100); err != nil {
		t.Fatal(err)
	}
	if calls != 100 {
		t.Fatalf("OnCycle calls %d", calls)
	}
	sys.OnCycle(nil)
	if err := sys.Run(100); err != nil {
		t.Fatal(err)
	}
	if calls != 100 {
		t.Fatal("OnCycle not cleared")
	}
}

func TestUseBeforeMastersFails(t *testing.T) {
	sys := NewSystem(Config{})
	if err := sys.UseLottery(); err == nil {
		t.Fatal("lottery with no masters accepted")
	}
	if err := sys.UsePriority(); err == nil {
		t.Fatal("priority with no masters accepted")
	}
	if err := sys.UseRoundRobin(); err == nil {
		t.Fatal("round robin with no masters accepted")
	}
}

func TestZeroWeightClamped(t *testing.T) {
	sys := NewSystem(Config{})
	sys.AddSlave("mem", 0)
	i := sys.AddMaster("m", 0, nil)
	if sys.Weight(i) != 1 {
		t.Fatalf("zero weight not clamped: %d", sys.Weight(i))
	}
	sys.SetWeight(i, 0)
	if sys.Weight(i) != 1 {
		t.Fatal("SetWeight(0) not clamped")
	}
}

func TestTrafficConstructors(t *testing.T) {
	if g := SaturatingTraffic(4, 0); g == nil {
		t.Fatal("saturating nil")
	}
	if g := PeriodicTraffic(10, 0, 4, 0); g == nil {
		t.Fatal("periodic nil")
	}
	if _, err := BernoulliTraffic(0.5, 16, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := BernoulliTraffic(5, 1, 0, 1); err == nil {
		t.Fatal("infeasible bernoulli accepted")
	}
	if _, err := BurstyTraffic(0.2, 0.8, 256, 16, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := TrafficClass("T5", 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := TrafficClass("L4", 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := TrafficClass("nope", 0, 0, 1); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestStarvationHelpers(t *testing.T) {
	p := AccessProbability(1, 10, 10)
	if p <= 0.6 || p >= 0.7 {
		t.Fatalf("AccessProbability = %v", p)
	}
	n := DrawsForConfidence(1, 10, 0.99)
	if n < 40 || n > 50 {
		t.Fatalf("DrawsForConfidence = %d", n)
	}
}

func TestSplitSlaveThroughFacade(t *testing.T) {
	sys := NewSystem(Config{})
	mem := sys.AddSplitSlave("ddr", 10)
	sys.AddMaster("cpu", 1, nil)
	if err := sys.UseLottery(); err != nil {
		t.Fatal(err)
	}
	sys.Inject(0, 4, mem)
	if err := sys.Run(30); err != nil {
		t.Fatal(err)
	}
	// Address beat at 0, response ready at 10, data 10-13: latency 14.
	if lat := sys.Report().Masters[0].AvgMessageLatency; lat != 14 {
		t.Fatalf("split latency %v", lat)
	}
}

func TestTicketsForSharesFacade(t *testing.T) {
	tickets, e, err := TicketsForShares([]float64{25, 75}, 0.01)
	if err != nil || e != 0 {
		t.Fatalf("%v %v %v", tickets, e, err)
	}
	if tickets[0] != 1 || tickets[1] != 3 {
		t.Fatalf("tickets %v", tickets)
	}
	// End-to-end: build a system from the solved tickets and verify the
	// delivered shares.
	sys := NewSystem(Config{Seed: 8})
	mem := sys.AddSlave("mem", 0)
	for _, tk := range tickets {
		sys.AddMaster("m", tk, SaturatingTraffic(16, mem))
	}
	if err := sys.UseLottery(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(100000); err != nil {
		t.Fatal(err)
	}
	if got := sys.Report().Masters[1].BandwidthFraction; math.Abs(got-0.75) > 0.02 {
		t.Fatalf("delivered share %v", got)
	}
}

func TestSlaveWaitStatesThroughFacade(t *testing.T) {
	sys := NewSystem(Config{})
	slow := sys.AddSlave("slow", 1)
	sys.AddMaster("m", 1, nil)
	if err := sys.UseLottery(); err != nil {
		t.Fatal(err)
	}
	sys.Inject(0, 4, slow)
	if err := sys.Run(20); err != nil {
		t.Fatal(err)
	}
	if lat := sys.Report().Masters[0].AvgMessageLatency; lat != 8 {
		t.Fatalf("wait-state latency %v", lat)
	}
}

func TestFastForwardThroughFacade(t *testing.T) {
	build := func() *System {
		sys := NewSystem(Config{Seed: 5})
		sys.AddSlave("mem", 0)
		for i := 0; i < 4; i++ {
			g, err := BernoulliTraffic(0.02, 16, 0, uint64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			sys.AddMaster(string(rune('a'+i)), uint64(i+1), g)
		}
		if err := sys.UseLottery(); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := build()
	if err := sys.Run(100000); err != nil {
		t.Fatal(err)
	}
	if sys.FastForwardedCycles() == 0 {
		t.Fatal("low-load run did not fast-forward")
	}

	// An OnCycle observer must force the naive per-cycle loop, with the
	// same reported statistics (the hook observes every cycle, so the
	// engine may not skip any).
	hooked := build()
	cycles := 0
	hooked.OnCycle(func(int64, *System) { cycles++ })
	if err := hooked.Run(100000); err != nil {
		t.Fatal(err)
	}
	if hooked.FastForwardedCycles() != 0 {
		t.Fatalf("hooked run fast-forwarded %d cycles", hooked.FastForwardedCycles())
	}
	if cycles != 100000 {
		t.Fatalf("OnCycle saw %d cycles", cycles)
	}
	a, b := sys.Report(), hooked.Report()
	for i := range a.Masters {
		if a.Masters[i].BandwidthFraction != b.Masters[i].BandwidthFraction ||
			a.Masters[i].Messages != b.Masters[i].Messages {
			t.Fatalf("fast vs hooked reports diverge for master %d: %+v vs %+v",
				i, a.Masters[i], b.Masters[i])
		}
	}
}

func TestFaultInjectionThroughFacade(t *testing.T) {
	sys := newSaturated(t, []uint64{1, 1})
	if err := sys.UseLottery(); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetFaults(FaultConfig{SlaveError: 0.05}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(20000); err != nil {
		t.Fatal(err)
	}
	r := sys.Report()
	var retries, errWords int64
	for _, m := range r.Masters {
		retries += m.Retries
		errWords += m.ErrorWords
	}
	if retries == 0 || errWords == 0 {
		t.Fatalf("fault run recorded no resilience activity: %+v", r.Masters)
	}
	if !strings.Contains(r.String(), "retries") {
		t.Fatalf("faulty report lacks resilience columns:\n%s", r)
	}
	if sys.FastForwardedCycles() == 0 {
		t.Fatal("fault-armed run never fast-forwarded")
	}

	// A clean run's report keeps the original column set.
	clean := newSaturated(t, []uint64{1, 1})
	if err := clean.UseLottery(); err != nil {
		t.Fatal(err)
	}
	if err := clean.Run(20000); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.Report().String(), "retries") {
		t.Fatalf("clean report grew resilience columns:\n%s", clean.Report())
	}
}

// TestSetFaultsDisarmStopsFaults is the facade regression test for a
// stale fault model: a zero FaultConfig after an armed Run must stop all
// fault activity on the fast-forward engine, exactly as on the per-cycle
// loop (an OnCycle hook forces it).
func TestSetFaultsDisarmStopsFaults(t *testing.T) {
	run := func(naive bool) *System {
		sys := newSaturated(t, []uint64{1, 3})
		if err := sys.UseLottery(); err != nil {
			t.Fatal(err)
		}
		if naive {
			sys.OnCycle(func(int64, *System) {})
		}
		if err := sys.SetFaults(FaultConfig{SlaveError: 0.05, WordError: 0.02}); err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(1000); err != nil {
			t.Fatal(err)
		}
		if err := sys.SetFaults(FaultConfig{}); err != nil {
			t.Fatal(err)
		}
		armed := sys.Report()
		if err := sys.Run(1000); err != nil {
			t.Fatal(err)
		}
		for i, m := range sys.Report().Masters {
			if a := armed.Masters[i]; m.Retries != a.Retries || m.ErrorWords != a.ErrorWords {
				t.Errorf("naive=%v master %d: retries %d->%d, error words %d->%d after disarm",
					naive, i, a.Retries, m.Retries, a.ErrorWords, m.ErrorWords)
			}
		}
		return sys
	}
	fast, naive := run(false), run(true)
	if fast.FastForwardedCycles() == 0 || naive.FastForwardedCycles() != 0 {
		t.Fatalf("engines: fast-forwarded %d (fast) and %d (hooked) cycles",
			fast.FastForwardedCycles(), naive.FastForwardedCycles())
	}
	if f, n := fast.Collector().Fingerprint(), naive.Collector().Fingerprint(); f != n {
		t.Fatalf("fingerprint: fast %#x, hooked %#x", f, n)
	}
}

func TestSetFaultsRejectsBadConfig(t *testing.T) {
	sys := newSaturated(t, []uint64{1})
	if err := sys.SetFaults(FaultConfig{SlaveError: 1.5}); err == nil {
		t.Fatal("out-of-range rate accepted")
	}
	if err := sys.SetFaults(FaultConfig{Babblers: []Babbler{{Master: 7, Load: 0.5}}}); err == nil {
		t.Fatal("out-of-range babbler master accepted")
	}
}
