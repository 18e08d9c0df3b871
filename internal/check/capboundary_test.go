package check_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"lotterybus"
	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/core"
	"lotterybus/internal/hw"
	"lotterybus/internal/prng"
	"lotterybus/internal/simcfg"
	"lotterybus/internal/traffic"
)

// Every layer that counts masters — the lottery core, the bus on both
// engines, the replica set, the structural hardware model and the
// config facade —
// must enforce the same ceiling, core.MaxMasters, and say so in its
// error. Before the cap was lifted to one exported constant, these
// layers each carried their own hard-coded 64 and could disagree; this
// table pins them together so the cap can only ever move in one place.

// capWords adapts a PRNG to the hardware model's word source.
type capWords struct{ x *prng.XorShift64Star }

func (s capWords) Word() uint64 { return s.x.Uint64() }

// capConfigJSON renders an n-master simcfg document.
func capConfigJSON(n int) []byte {
	var sb strings.Builder
	sb.WriteString(`{"cycles": 100, "maxBurst": 16, "arbiter": {"kind": "lottery"},`)
	sb.WriteString(`"slaves": [{"name": "mem"}], "masters": [`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"name": "m%d", "weight": %d, "traffic": {"kind": "bernoulli", "load": 0.01, "msgWords": 4}}`, i, i%4+1)
	}
	sb.WriteString("]}")
	return []byte(sb.String())
}

// capBusAt builds and runs a one-cycle n-master saturated bus on the
// naive loop or the fast-forward engine.
func capBusAt(n int, disableFastForward bool) error {
	b := bus.New(bus.Config{MaxBurst: 16})
	b.DisableFastForward = disableFastForward
	for i := 0; i < n; i++ {
		b.AddMaster(fmt.Sprintf("m%d", i), &traffic.Saturating{Words: 1}, bus.MasterOpts{Tickets: 1})
	}
	b.AddSlave("mem", bus.SlaveOpts{})
	a, err := arb.NewRoundRobin(n)
	if err != nil {
		return err
	}
	b.SetArbiter(a)
	return b.Run(1)
}

// capLanesAt builds two n-master Systems at seeds 1 and 2 and runs
// them for one cycle as a lotterybus.ReplicaSet.
func capLanesAt(n int) error {
	systems := make([]*lotterybus.System, 2)
	for l := range systems {
		sys := lotterybus.NewSystem(lotterybus.Config{Seed: 1 + uint64(l), MaxBurst: 16})
		sys.AddSlave("mem", 0)
		for i := 0; i < n; i++ {
			sys.AddMaster(fmt.Sprintf("m%d", i), 1, lotterybus.SaturatingTraffic(1, 0))
		}
		if err := sys.UseRoundRobin(); err != nil {
			return err
		}
		systems[l] = sys
	}
	return lotterybus.NewReplicaSet(systems...).Run(1)
}

// TestMaxMastersCapConsistent asserts every layer accepts exactly
// core.MaxMasters masters, rejects core.MaxMasters+1, and names the
// shared constant in its rejection.
func TestMaxMastersCapConsistent(t *testing.T) {
	wantMsg := fmt.Sprintf("core.MaxMasters (%d)", core.MaxMasters)
	cases := []struct {
		layer string
		at    func(n int) error
	}{
		{"core/static-lottery", func(n int) error {
			_, err := core.NewStaticLottery(core.StaticConfig{
				Tickets: onesTickets(n),
				Source:  prng.NewXorShift64Star(3),
			})
			return err
		}},
		{"core/dynamic-lottery", func(n int) error {
			_, err := core.NewDynamicLottery(core.DynamicConfig{
				Masters: n,
				Source:  prng.NewXorShift64Star(3),
			})
			return err
		}},
		{"hw/dynamic-manager", func(n int) error {
			_, err := hw.NewDynamicManager(n, 16, capWords{prng.NewXorShift64Star(3)})
			return err
		}},
		{"bus/scalar", func(n int) error { return capBusAt(n, true) }},
		{"bus/fast-forward", func(n int) error { return capBusAt(n, false) }},
		{"lanes/engine", capLanesAt},
		{"simcfg/parse", func(n int) error {
			_, err := simcfg.ParseConfig(bytes.NewReader(capConfigJSON(n)))
			return err
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.layer, func(t *testing.T) {
			t.Parallel()
			if err := c.at(core.MaxMasters); err != nil {
				t.Errorf("rejects exactly core.MaxMasters (%d): %v", core.MaxMasters, err)
			}
			err := c.at(core.MaxMasters + 1)
			if err == nil {
				t.Fatalf("accepts %d masters, above the cap", core.MaxMasters+1)
			}
			if !strings.Contains(err.Error(), wantMsg) {
				t.Errorf("rejection %q does not name %q", err, wantMsg)
			}
		})
	}
}

func onesTickets(n int) []uint64 {
	tk := make([]uint64, n)
	for i := range tk {
		tk[i] = 1
	}
	return tk
}
