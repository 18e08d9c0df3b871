package expt

import (
	"fmt"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/core"
	"lotterybus/internal/prng"
	"lotterybus/internal/runner"
	"lotterybus/internal/stats"
	"lotterybus/internal/traffic"
)

// Replay compares every arbitration scheme under a byte-identical
// workload: one stochastic run is recorded per master, then replayed
// against each architecture — the paper's methodology for comparing
// communication architectures fairly ("the simulation was repeated for
// every possible priority assignment" over the same traffic).
type Replay struct {
	Rows []ReplayRow
}

// ReplayRow is one architecture's outcome on the common workload.
type ReplayRow struct {
	Arch string
	// BW[i] is master i's bandwidth fraction.
	BW [4]float64
	// C4Latency is the highest-weight master's cycles/word.
	C4Latency float64
	// Utilization is the busy-bus fraction.
	Utilization float64
}

// Table renders the comparison.
func (r *Replay) Table() *stats.Table {
	t := stats.NewTable("All architectures on one recorded workload (weights 1:2:3:4, class L4)",
		"architecture", "C1 bw%", "C2 bw%", "C3 bw%", "C4 bw%", "C4 cyc/word", "util%")
	for _, row := range r.Rows {
		t.AddRow(row.Arch,
			fmt.Sprintf("%.1f", 100*row.BW[0]),
			fmt.Sprintf("%.1f", 100*row.BW[1]),
			fmt.Sprintf("%.1f", 100*row.BW[2]),
			fmt.Sprintf("%.1f", 100*row.BW[3]),
			fmt.Sprintf("%.2f", row.C4Latency),
			fmt.Sprintf("%.1f", 100*row.Utilization),
		)
	}
	return t
}

// Row returns the named architecture's row.
func (r *Replay) Row(arch string) (ReplayRow, bool) {
	for _, row := range r.Rows {
		if row.Arch == arch {
			return row, true
		}
	}
	return ReplayRow{}, false
}

// RunReplay records one L4-class workload and replays it under six
// architectures.
func RunReplay(o Options) (*Replay, error) {
	o = o.fill()
	class, err := traffic.ClassByName("L4")
	if err != nil {
		return nil, err
	}
	weights := []uint64{1, 2, 3, 4}

	// Record the workload once, event to event: under the Scheduler
	// contract, ticking only at each NextArrival emits exactly what
	// ticking every cycle would.
	traces := make([]*traffic.Trace, fourMasters)
	for i := range traces {
		gen, err := class.Generator(i, 0, prng.Derive(o.Seed, "replay"))
		if err != nil {
			return nil, err
		}
		rec := traffic.NewRecorder(gen)
		for c := rec.NextArrival(0); c < o.Cycles; c = rec.NextArrival(c + 1) {
			rec.Tick(c, 0, func(int, int) {})
		}
		traces[i] = &rec.Trace
	}

	mk := map[string]func() (bus.Arbiter, error){
		"lotterybus": func() (bus.Arbiter, error) {
			return lotteryArbiter(o, weights, "replay")
		},
		"static-priority": func() (bus.Arbiter, error) {
			return arb.NewPriority(weights)
		},
		"tdma-2level": func() (bus.Arbiter, error) {
			return tdmaArbiter(weights, latencyWheelScale*class.MsgWords)
		},
		"round-robin": func() (bus.Arbiter, error) {
			return arb.NewRoundRobin(fourMasters)
		},
		"weighted-round-robin": func() (bus.Arbiter, error) {
			return arb.NewWeightedRoundRobin(weights, 4)
		},
		"lottery-compensated": func() (bus.Arbiter, error) {
			mgr, err := core.NewDynamicLottery(core.DynamicConfig{
				Masters: fourMasters,
				Source:  prng.NewXorShift64Star(prng.Derive(o.Seed, "replay/comp")),
			})
			if err != nil {
				return nil, err
			}
			return arb.NewCompensatedLottery(weights, 16, mgr)
		},
	}

	// Trace.Replay hands each bus a fresh cursor over the shared
	// read-only arrival slice, so the six replays run concurrently.
	archs := []string{
		"static-priority", "round-robin", "weighted-round-robin",
		"tdma-2level", "lotterybus", "lottery-compensated",
	}
	rows, err := runner.Map(o.workers(), len(archs), func(k int) (ReplayRow, error) {
		arch := archs[k]
		a, err := mk[arch]()
		if err != nil {
			return ReplayRow{}, err
		}
		b := bus.New(bus.Config{MaxBurst: 16})
		for i := 0; i < fourMasters; i++ {
			b.AddMaster(fmt.Sprintf("C%d", i+1), traces[i].Replay(), bus.MasterOpts{Tickets: weights[i]})
		}
		b.AddSlave("mem", bus.SlaveOpts{})
		b.SetArbiter(a)
		if err := b.Run(o.Cycles); err != nil {
			return ReplayRow{}, err
		}
		col := b.Collector()
		row := ReplayRow{
			Arch:        arch,
			C4Latency:   col.PerWordLatency(3),
			Utilization: col.Utilization(),
		}
		copy(row.BW[:], bandwidths(b.Collector()))
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Replay{Rows: rows}, nil
}
