// Package lanes_test is the replica-lane equivalence suite. It holds no
// code of its own: seed-replicas ("lanes") are Systems built by simcfg
// at seed+l, each an independent bus.Bus that lotterybus.ReplicaSet or
// simcfg.Replicas runs on a worker on bus.Run's fast-forward kernel.
// The suite's claim is bit-identity: lane l, run on the kernel,
// produces exactly the collector fingerprint, queues, drops and slave
// words of the naive per-cycle loop built from the same configuration
// with lane l's generator seeds. It is proved over the 6-config x
// 9-arbiter x 6-traffic verification grid plus a saturating class,
// under chunked Runs and any worker count.
package lanes_test

import (
	"fmt"
	"strings"
	"testing"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/check"
	"lotterybus/internal/runner"
	"lotterybus/internal/traffic"
)

const (
	eqLanes  = 3
	eqCycles = 15000
	// laneSeedStride separates per-lane generator seed spaces, mirroring
	// how lotterysim -replicate offsets each replica's seed.
	laneSeedStride = 1000
)

// buildLane assembles lane `lane` of a grid cell: check.Build's masters,
// tickets, slaves and arbiter, with the generators seeded at offset
// laneSeedStride*lane.
func buildLane(t *testing.T, bc check.BusConfig, am check.ArbMaker, gm check.GenMaker, lane int, naive bool) *bus.Bus {
	t.Helper()
	b := bus.New(bc.Cfg)
	b.DisableFastForward = naive
	for i := 0; i < check.MatrixMasters; i++ {
		gen, err := gm.Make(i, uint64(100+i)+laneSeedStride*uint64(lane))
		if err != nil {
			t.Fatalf("lane %d master %d: %v", lane, i, err)
		}
		b.AddMaster(fmt.Sprintf("m%d", i), gen, bus.MasterOpts{Tickets: uint64(i + 1)})
	}
	b.AddSlave("mem", bus.SlaveOpts{WaitStates: bc.WaitStates})
	b.AddSlave("io", bus.SlaveOpts{SplitLatency: bc.SplitLatency})
	a, err := am.Make()
	if err != nil {
		t.Fatalf("lane %d arbiter: %v", lane, err)
	}
	b.SetArbiter(a)
	return b
}

// buildLanes returns n fast-forward lanes of a grid cell.
func buildLanes(t *testing.T, bc check.BusConfig, am check.ArbMaker, gm check.GenMaker, n int) []*bus.Bus {
	t.Helper()
	ls := make([]*bus.Bus, n)
	for l := range ls {
		ls[l] = buildLane(t, bc, am, gm, l, false)
	}
	return ls
}

// runLanes advances every lane n cycles on up to workers goroutines.
func runLanes(ls []*bus.Bus, n int64, workers int) error {
	_, err := runner.Map(workers, len(ls), func(l int) (struct{}, error) {
		return struct{}{}, ls[l].Run(n)
	})
	return err
}

// compareLane asserts lane is bit-identical to its naive reference and
// passes the full invariant audit.
func compareLane(t *testing.T, got, ref *bus.Bus, lane int) {
	t.Helper()
	if g, w := got.Cycle(), ref.Cycle(); g != w {
		t.Errorf("lane %d: cycle %d, naive %d", lane, g, w)
	}
	lc, rc := got.Collector(), ref.Collector()
	if lc.Fingerprint() != rc.Fingerprint() {
		t.Errorf("lane %d: fingerprint %#x, naive %#x", lane, lc.Fingerprint(), rc.Fingerprint())
		for m := 0; m < check.MatrixMasters; m++ {
			t.Logf("lane %d  fast: %s", lane, lc.Summary(m))
			t.Logf("lane %d naive: %s", lane, rc.Summary(m))
		}
	}
	for m := 0; m < check.MatrixMasters; m++ {
		gm, rm := got.Master(m), ref.Master(m)
		if g, w := gm.Dropped(), rm.Dropped(); g != w {
			t.Errorf("lane %d master %d: dropped %d, naive %d", lane, m, g, w)
		}
		if g, w := gm.QueueLen(), rm.QueueLen(); g != w {
			t.Errorf("lane %d master %d: queue %d, naive %d", lane, m, g, w)
		}
		if g, w := gm.Outstanding(), rm.Outstanding(); g != w {
			t.Errorf("lane %d master %d: outstanding %v, naive %v", lane, m, g, w)
		}
	}
	for s := 0; s < got.NumSlaves(); s++ {
		if g, w := got.Slave(s).Words(), ref.Slave(s).Words(); g != w {
			t.Errorf("lane %d slave %d: words %d, naive %d", lane, s, g, w)
		}
	}
	if v := check.Audit(got); len(v) != 0 {
		msgs := make([]string, len(v))
		for i, x := range v {
			msgs[i] = x.String()
		}
		t.Errorf("lane %d: audit violations: %s", lane, strings.Join(msgs, "; "))
	}
}

// runGridCell runs one grid cell's lanes on the kernel and compares each
// against its naive reference.
func runGridCell(t *testing.T, bc check.BusConfig, am check.ArbMaker, gm check.GenMaker) {
	t.Helper()
	ls := buildLanes(t, bc, am, gm, eqLanes)
	if err := runLanes(ls, eqCycles, 2); err != nil {
		t.Fatalf("lanes: %v", err)
	}
	for lane, got := range ls {
		ref := buildLane(t, bc, am, gm, lane, true)
		if err := ref.Run(eqCycles); err != nil {
			t.Fatalf("naive run: %v", err)
		}
		compareLane(t, got, ref, lane)
	}
}

// TestLaneEquivalenceGrid proves per-lane bit-identity over the full
// verification grid.
func TestLaneEquivalenceGrid(t *testing.T) {
	for _, bc := range check.BusConfigs() {
		for _, am := range check.Arbiters() {
			for _, gm := range check.TrafficClasses() {
				bc, am, gm := bc, am, gm
				t.Run(bc.Name+"/"+am.Name+"/"+gm.Name, func(t *testing.T) {
					t.Parallel()
					runGridCell(t, bc, am, gm)
				})
			}
		}
	}
}

// TestLaneEquivalenceSaturating covers saturated lanes, which the
// kernel fast-forwards through bus.Saturator (the grid's traffic
// classes are all Scheduler-backed), across every bus config and
// arbiter.
func TestLaneEquivalenceSaturating(t *testing.T) {
	gm := check.GenMaker{
		Name: "saturating",
		Make: func(i int, seed uint64) (bus.Generator, error) {
			return &traffic.Saturating{Words: 8 + i, Slave: i % 2}, nil
		},
	}
	for _, bc := range check.BusConfigs() {
		for _, am := range check.Arbiters() {
			bc, am := bc, am
			t.Run(bc.Name+"/"+am.Name, func(t *testing.T) {
				t.Parallel()
				runGridCell(t, bc, am, gm)
			})
		}
	}
}

// TestLaneChunkedRuns proves Run may be split at arbitrary boundaries:
// the arrival cache re-primed at each boundary must leave every lane's
// fingerprint identical to a one-shot run.
func TestLaneChunkedRuns(t *testing.T) {
	bc := check.BusConfigs()[2]     // split
	am := check.Arbiters()[7]       // dynamic-lottery
	gm := check.TrafficClasses()[2] // onoff
	one := buildLanes(t, bc, am, gm, eqLanes)
	if err := runLanes(one, eqCycles, 1); err != nil {
		t.Fatal(err)
	}
	chunked := buildLanes(t, bc, am, gm, eqLanes)
	for _, n := range []int64{1, 7, 4992, 10000} {
		if err := runLanes(chunked, n, 1); err != nil {
			t.Fatal(err)
		}
	}
	for lane := range chunked {
		if got, want := chunked[lane].Cycle(), one[lane].Cycle(); got != want {
			t.Fatalf("lane %d: chunked cycles %d, one-shot %d", lane, got, want)
		}
		if got, want := chunked[lane].Collector().Fingerprint(), one[lane].Collector().Fingerprint(); got != want {
			t.Errorf("lane %d: chunked fingerprint %#x, one-shot %#x", lane, got, want)
		}
	}
}

// TestLaneParallelDeterminism proves worker count does not influence
// results: lanes are independent, so any sharding yields the same bits.
func TestLaneParallelDeterminism(t *testing.T) {
	bc := check.BusConfigs()[0]
	am := check.Arbiters()[6] // static-lottery
	gm := check.TrafficClasses()[1]
	serial, parallel := buildLanes(t, bc, am, gm, 8), buildLanes(t, bc, am, gm, 8)
	if err := runLanes(serial, eqCycles, 1); err != nil {
		t.Fatal(err)
	}
	if err := runLanes(parallel, eqCycles, 4); err != nil {
		t.Fatal(err)
	}
	for lane := range serial {
		if got, want := parallel[lane].Collector().Fingerprint(), serial[lane].Collector().Fingerprint(); got != want {
			t.Errorf("lane %d: 4-worker fingerprint %#x, serial %#x", lane, got, want)
		}
	}
}

// laneFeatureBus builds the two-master saturated lane of the feature
// tests below: a wait-stated memory, a split io slave and a static
// priority arbiter (a Preemptor), on the naive loop when naive is set.
func laneFeatureBus(t *testing.T, cfg bus.Config, naive bool) *bus.Bus {
	t.Helper()
	b := bus.New(cfg)
	b.DisableFastForward = naive
	b.AddMaster("m0", &traffic.Saturating{Words: 4}, bus.MasterOpts{Tickets: 1})
	b.AddMaster("m1", &traffic.Saturating{Words: 6, Slave: 1}, bus.MasterOpts{Tickets: 2})
	b.AddSlave("mem", bus.SlaveOpts{WaitStates: 1})
	b.AddSlave("io", bus.SlaveOpts{SplitLatency: 12})
	a, err := arb.NewPriority([]uint64{0, 1}) // a Preemptor
	if err != nil {
		t.Fatal(err)
	}
	b.SetArbiter(a)
	return b
}

// laneFeatureCheck runs two lanes of cfg on the kernel and one on the
// naive loop, failing unless the lanes fingerprint as the naive loop
// and fast-forward exactly when ff says they should.
func laneFeatureCheck(t *testing.T, cfg bus.Config, ff bool) {
	t.Helper()
	ls := []*bus.Bus{laneFeatureBus(t, cfg, false), laneFeatureBus(t, cfg, false)}
	if err := runLanes(ls, 2000, 2); err != nil {
		t.Fatal(err)
	}
	ref := laneFeatureBus(t, cfg, true)
	if err := ref.Run(2000); err != nil {
		t.Fatal(err)
	}
	for lane, b := range ls {
		if n := b.FastForwarded(); (n > 0) != ff {
			t.Errorf("lane %d fast-forwarded %d cycles, want fast-forward %v", lane, n, ff)
		}
		if got, want := b.Collector().Fingerprint(), ref.Collector().Fingerprint(); got != want {
			t.Errorf("lane %d: fingerprint %#x, naive %#x", lane, got, want)
		}
	}
}

// TestLaneRejectsPerCycleFeatures asserts the kernel refuses to
// fast-forward lanes whose configuration needs the per-cycle loop (an
// active preemptor): each lane advances cycle by cycle and stays
// bit-identical to the naive loop, while the same lanes without the
// feature do fast-forward.
func TestLaneRejectsPerCycleFeatures(t *testing.T) {
	plain := laneFeatureBus(t, bus.Config{MaxBurst: 16}, false)
	if plain.Run(2000) != nil || plain.FastForwarded() == 0 {
		t.Fatalf("control lane without per-cycle features did not fast-forward")
	}
	t.Run("preemption", func(t *testing.T) {
		laneFeatureCheck(t, bus.Config{MaxBurst: 16, Preemption: true}, false)
	})
}

// TestLaneFastForwardsResilience asserts the split watchdog and the
// starvation detector keep lanes on the fast-forward kernel, bit-identical
// to the naive loop.
func TestLaneFastForwardsResilience(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  bus.Config
	}{
		{"split-timeout", bus.Config{MaxBurst: 16, SplitTimeout: 100}},
		{"starvation", bus.Config{MaxBurst: 16, StarvationThreshold: 50}},
	} {
		t.Run(tc.name, func(t *testing.T) { laneFeatureCheck(t, tc.cfg, true) })
	}
}
