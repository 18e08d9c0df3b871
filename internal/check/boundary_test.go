package check_test

import (
	"fmt"
	"testing"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/check"
	"lotterybus/internal/core"
	"lotterybus/internal/prng"
	"lotterybus/internal/topology"
	"lotterybus/internal/traffic"
)

// The 64-master boundary is where the request mask crosses from the
// single-word fast path into the wide bitset: 63 and 64 masters must
// stay on the Mask64 path, 65 and beyond take the [K]uint64 path. This
// grid proves both engines — the naive per-cycle loop and the
// fast-forward engine — remain bit-identical on both sides of that
// boundary, under light and saturating traffic, so the fast path is an
// optimization and not a behavioural fork.

const (
	boundaryCycles = 8000
	boundarySeed   = 99
)

// wideArbMaker builds an n-master arbiter for the boundary grid.
type wideArbMaker struct {
	name string
	make func(n int) (bus.Arbiter, error)
}

func wideArbiters() []wideArbMaker {
	return []wideArbMaker{
		{"static-lottery", func(n int) (bus.Arbiter, error) {
			tickets := make([]uint64, n)
			for i := range tickets {
				tickets[i] = uint64(i%4) + 1
			}
			mgr, err := core.NewStaticLottery(core.StaticConfig{
				Tickets: tickets,
				Source:  prng.NewXorShift64Star(7),
			})
			if err != nil {
				return nil, err
			}
			return arb.NewStaticLottery(mgr), nil
		}},
		{"dynamic-lottery", func(n int) (bus.Arbiter, error) {
			mgr, err := core.NewDynamicLottery(core.DynamicConfig{
				Masters: n,
				Source:  prng.NewXorShift64Star(7),
			})
			if err != nil {
				return nil, err
			}
			return arb.NewDynamicLottery(mgr), nil
		}},
		{"roundrobin", func(n int) (bus.Arbiter, error) {
			return arb.NewRoundRobin(n)
		}},
	}
}

// boundaryGen builds master i's generator for an n-master boundary
// cell: light Bernoulli load so the fast-forward engine has dead gaps
// to skip, or with saturated set, every fourth master saturating (two
// of them per mask word once the bus is wide) over the light load.
func boundaryGen(n, i int, saturated bool) (bus.Generator, error) {
	if saturated && i%4 == 3 {
		return &traffic.Saturating{Words: 8 + i%5, Slave: i % 2}, nil
	}
	return traffic.NewBernoulli(0.008, traffic.Fixed(8), i%2,
		prng.Derive(boundarySeed, fmt.Sprintf("wide%d/m%d", n, i)))
}

// buildWideBus builds the n-master naive (or fast-forward) bus.
func buildWideBus(n int, am wideArbMaker, saturated, disableFastForward bool) (*bus.Bus, error) {
	b := bus.New(bus.Config{MaxBurst: 16})
	b.DisableFastForward = disableFastForward
	for i := 0; i < n; i++ {
		gen, err := boundaryGen(n, i, saturated)
		if err != nil {
			return nil, err
		}
		b.AddMaster(fmt.Sprintf("m%d", i), gen, bus.MasterOpts{Tickets: uint64(i%4) + 1})
	}
	b.AddSlave("mem", bus.SlaveOpts{})
	b.AddSlave("io", bus.SlaveOpts{})
	a, err := am.make(n)
	if err != nil {
		return nil, err
	}
	b.SetArbiter(a)
	return b, nil
}

// TestWideBoundaryGrid runs 63-, 64-, 65- and 96-master systems on the
// naive loop and the fast-forward engine, under light and saturating
// traffic, and requires identical collector fingerprints, a clean
// invariant audit, and cycles actually skipped on each side of the
// mask-word boundary.
func TestWideBoundaryGrid(t *testing.T) {
	for _, n := range []int{63, 64, 65, 96} {
		for _, am := range wideArbiters() {
			n, am := n, am
			t.Run(fmt.Sprintf("n%d/%s", n, am.name), func(t *testing.T) {
				t.Parallel()
				for _, saturated := range []bool{false, true} {
					naive, err := buildWideBus(n, am, saturated, true)
					if err != nil {
						t.Fatal(err)
					}
					if err := naive.Run(boundaryCycles); err != nil {
						t.Fatal(err)
					}
					ff, err := buildWideBus(n, am, saturated, false)
					if err != nil {
						t.Fatal(err)
					}
					if err := ff.Run(boundaryCycles); err != nil {
						t.Fatal(err)
					}
					if got, want := ff.Collector().Fingerprint(), naive.Collector().Fingerprint(); got != want {
						t.Errorf("saturated=%v: fast-forward fingerprint %#x, naive %#x", saturated, got, want)
					}
					if v := check.Audit(naive); len(v) != 0 {
						t.Errorf("saturated=%v: naive audit: %v", saturated, v)
					}
					if v := check.Audit(ff); len(v) != 0 {
						t.Errorf("saturated=%v: fast-forward audit: %v", saturated, v)
					}
					if ff.FastForwarded() == 0 {
						t.Errorf("saturated=%v: fast-forward engine skipped no cycles", saturated)
					}
					var moved int64
					for m := 0; m < naive.Collector().N(); m++ {
						moved += naive.Collector().Words(m)
					}
					if moved == 0 {
						t.Errorf("saturated=%v: boundary cell moved no words; grid is vacuous", saturated)
					}
				}
			})
		}
	}
}

// TestMultiSegmentConservationAudit builds a bridged two-segment fabric
// wide enough to cross the mask boundary (48 masters per segment, 96
// fabric-wide), runs it, and requires the system audit to pass: every
// word entering the bridge from segment A is injected into segment B,
// still waiting in the bridge FIFO, or counted as shed — never invented
// or lost between the segments' independent ledgers.
func TestMultiSegmentConservationAudit(t *testing.T) {
	const perSeg = 48
	mkSeg := func(tag string, hasBridgeMaster bool) *bus.Bus {
		b := bus.New(bus.Config{MaxBurst: 16})
		tickets := []uint64{}
		if hasBridgeMaster {
			b.AddMaster("bridge-in", nil, bus.MasterOpts{Tickets: 4})
			tickets = append(tickets, 4)
		}
		for i := 0; i < perSeg; i++ {
			gen, err := traffic.NewBernoulli(0.02, traffic.Fixed(8), i%2,
				prng.Derive(boundarySeed, tag+fmt.Sprintf("/m%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			b.AddMaster(fmt.Sprintf("%s-m%d", tag, i), gen, bus.MasterOpts{Tickets: uint64(i%3) + 1})
			tickets = append(tickets, uint64(i%3)+1)
		}
		b.AddSlave("local", bus.SlaveOpts{})
		b.AddSlave("uplink", bus.SlaveOpts{})
		mgr, err := core.NewStaticLottery(core.StaticConfig{
			Tickets: tickets,
			Source:  prng.NewXorShift64Star(prng.Derive(boundarySeed, tag+"/arb")),
		})
		if err != nil {
			t.Fatal(err)
		}
		b.SetArbiter(arb.NewStaticLottery(mgr))
		return b
	}
	sys, bridges, err := topology.NewChain(
		[]topology.ChainSegment{
			{Name: "west", Bus: mkSeg("west", false)},
			{Name: "east", Bus: mkSeg("east", true)},
		},
		[]topology.BridgeConfig{{SrcSlave: 1, DstMaster: 0, DstSlave: 0, Delay: 2, FifoCap: 16}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(25000); err != nil {
		t.Fatal(err)
	}
	if v := check.AuditSystem(sys); len(v) != 0 {
		t.Fatalf("system audit: %v", v)
	}
	st := bridges[0].Stats()
	if st.WordsIn == 0 {
		t.Fatal("no words crossed the bridge; conservation test is vacuous")
	}
	if st.WordsIn != st.WordsOut+st.WordsWaiting+st.WordsDropped {
		t.Errorf("bridge ledger: in %d != out %d + waiting %d + dropped %d",
			st.WordsIn, st.WordsOut, st.WordsWaiting, st.WordsDropped)
	}
	// Everything segment B's collector credits to the bridge master was
	// put there by the bridge.
	if got := sys.Bus(1).Collector().Words(0); got > st.WordsOut {
		t.Errorf("segment east counts %d bridge words but the bridge injected only %d", got, st.WordsOut)
	}
}
