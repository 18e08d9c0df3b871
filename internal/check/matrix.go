package check

import (
	"fmt"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/core"
	"lotterybus/internal/prng"
	"lotterybus/internal/runner"
	"lotterybus/internal/traffic"
)

// This file owns the verification grid — 6 bus configurations × 9
// arbiters × 6 traffic classes — shared by the fast-forward equivalence
// suite (internal/bus's TestFastForwardEquivalence builds its cells from
// these constructors), the invariant matrix (RunMatrix), and the golden
// fingerprint corpus (golden.go). Keeping one grid means a new arbiter
// or traffic class added here is automatically equivalence-tested,
// audited and pinned.

// MatrixMasters is the master count of every grid cell (the paper's
// canonical four-master system).
const MatrixMasters = 4

// ArbMaker names and constructs one arbiter configuration of the grid.
// Make returns a fresh arbiter with fresh PRNG state per bus instance.
type ArbMaker struct {
	Name string
	Make func() (bus.Arbiter, error)
}

// Arbiters returns the nine arbiter configurations of the grid.
func Arbiters() []ArbMaker {
	return []ArbMaker{
		{"priority", func() (bus.Arbiter, error) {
			return arb.NewPriority([]uint64{3, 1, 2, 0})
		}},
		{"roundrobin", func() (bus.Arbiter, error) {
			return arb.NewRoundRobin(MatrixMasters)
		}},
		{"tokenring", func() (bus.Arbiter, error) {
			return arb.NewTokenRing(MatrixMasters, 8)
		}},
		{"tdma", func() (bus.Arbiter, error) {
			return arb.NewTDMA(arb.ContiguousWheel([]int{4, 3, 2, 1}), MatrixMasters, false)
		}},
		{"tdma-2level", func() (bus.Arbiter, error) {
			return arb.NewTDMA(arb.ContiguousWheel([]int{4, 3, 2, 1}), MatrixMasters, true)
		}},
		{"wrr", func() (bus.Arbiter, error) {
			return arb.NewWeightedRoundRobin([]uint64{1, 2, 3, 4}, 16)
		}},
		{"static-lottery", func() (bus.Arbiter, error) {
			mgr, err := core.NewStaticLottery(core.StaticConfig{
				Tickets: []uint64{1, 2, 3, 4},
				Source:  prng.NewXorShift64Star(42),
			})
			if err != nil {
				return nil, err
			}
			return arb.NewStaticLottery(mgr), nil
		}},
		{"dynamic-lottery", func() (bus.Arbiter, error) {
			mgr, err := core.NewDynamicLottery(core.DynamicConfig{
				Masters: MatrixMasters,
				Source:  prng.NewXorShift64Star(42),
			})
			if err != nil {
				return nil, err
			}
			return arb.NewDynamicLottery(mgr), nil
		}},
		{"compensated-lottery", func() (bus.Arbiter, error) {
			mgr, err := core.NewDynamicLottery(core.DynamicConfig{
				Masters: MatrixMasters,
				Source:  prng.NewXorShift64Star(42),
			})
			if err != nil {
				return nil, err
			}
			return arb.NewCompensatedLottery([]uint64{1, 2, 3, 4}, 64, mgr)
		}},
	}
}

// matrixTrace builds a deterministic replayable trace with bunched
// arrivals (including same-cycle duplicates, which Tick must emit in
// order).
func matrixTrace(seed uint64) *traffic.Trace {
	src := prng.NewXorShift64Star(seed)
	var arr []traffic.Arrival
	c := int64(0)
	for len(arr) < 300 {
		c += int64(prng.Geometric(src, 0.02))
		arr = append(arr, traffic.Arrival{Cycle: c, Words: prng.IntRange(src, 1, 24), Slave: int(c) % 2})
		if prng.Bernoulli(src, 0.2) {
			arr = append(arr, traffic.Arrival{Cycle: c, Words: 2, Slave: 0})
		}
	}
	return &traffic.Trace{Arrivals: arr}
}

// GenMaker names and constructs one traffic class of the grid; Make
// builds master i's generator. FastForwards reports whether a run under
// this class should actually skip cycles (low-load classes), which the
// equivalence suite asserts.
type GenMaker struct {
	Name         string
	FastForwards bool
	Make         func(i int, seed uint64) (bus.Generator, error)
}

// TrafficClasses returns the six traffic classes of the grid.
func TrafficClasses() []GenMaker {
	bern := func(load float64) func(i int, seed uint64) (bus.Generator, error) {
		return func(i int, seed uint64) (bus.Generator, error) {
			return traffic.NewBernoulli(load, traffic.Fixed(16), i%2, seed)
		}
	}
	onoff := func(i int, seed uint64) (bus.Generator, error) {
		return traffic.NewOnOff(traffic.OnOffConfig{
			MeanOn: 50, MeanOff: 250, LoadOn: 0.8,
			Size: traffic.Geometric{MeanWords: 8}, Slave: i % 2, Seed: seed,
		})
	}
	return []GenMaker{
		{"bernoulli-low", true, bern(0.04)},
		{"bernoulli-high", false, bern(0.72)},
		{"onoff", true, onoff},
		{"periodic", true, func(i int, seed uint64) (bus.Generator, error) {
			return &traffic.Periodic{Period: int64(40 + 13*i), Phase: int64(7 * i), Words: 8, Slave: i % 2}, nil
		}},
		{"trace", true, func(i int, seed uint64) (bus.Generator, error) {
			return matrixTrace(seed), nil
		}},
		{"mixed", true, func(i int, seed uint64) (bus.Generator, error) {
			switch i % 4 {
			case 0:
				return bern(0.1)(i, seed)
			case 1:
				return onoff(i, seed)
			case 2:
				return &traffic.Periodic{Period: 97, Phase: 11, Words: 4, Slave: 1}, nil
			default:
				return matrixTrace(seed), nil
			}
		}},
	}
}

// BusConfig is one bus/slave parameterization of the grid.
type BusConfig struct {
	Name string
	Cfg  bus.Config
	// WaitStates is slave 0's per-word wait states; SplitLatency is
	// slave 1's split-transaction latency (0 makes it a plain slave).
	WaitStates   int
	SplitLatency int
}

// BusConfigs returns the six bus configurations of the grid.
func BusConfigs() []BusConfig {
	return []BusConfig{
		{"base", bus.Config{MaxBurst: 16}, 0, 0},
		{"waitstates", bus.Config{MaxBurst: 16}, 3, 0},
		{"split", bus.Config{MaxBurst: 16}, 0, 20},
		{"arblatency", bus.Config{MaxBurst: 16, ArbLatency: 2}, 1, 0},
		{"smallburst", bus.Config{MaxBurst: 4}, 0, 0},
		{"tinyqueue", bus.Config{MaxBurst: 16, DefaultQueueCap: 4}, 2, 12},
	}
}

// Build assembles one grid cell's bus: four masters with tickets 1..4
// driven by gm's generators (seeds 100..103), a wait-state memory slave
// and a (possibly split) io slave, and am's arbiter attached.
func Build(bc BusConfig, am ArbMaker, gm GenMaker, disableFastForward bool) (*bus.Bus, error) {
	b := bus.New(bc.Cfg)
	b.DisableFastForward = disableFastForward
	for i := 0; i < MatrixMasters; i++ {
		gen, err := gm.Make(i, uint64(100+i))
		if err != nil {
			return nil, fmt.Errorf("check: %s/%s master %d: %w", bc.Name, gm.Name, i, err)
		}
		b.AddMaster(fmt.Sprintf("m%d", i), gen, bus.MasterOpts{Tickets: uint64(i + 1)})
	}
	b.AddSlave("mem", bus.SlaveOpts{WaitStates: bc.WaitStates})
	b.AddSlave("io", bus.SlaveOpts{SplitLatency: bc.SplitLatency})
	a, err := am.Make()
	if err != nil {
		return nil, fmt.Errorf("check: %s arbiter: %w", am.Name, err)
	}
	b.SetArbiter(a)
	return b, nil
}

// Cell is one matrix cell's outcome.
type Cell struct {
	// Config, Arbiter and Traffic name the grid coordinates.
	Config, Arbiter, Traffic string
	// Fingerprint is the fast-engine collector fingerprint.
	Fingerprint uint64
	// EnginesAgree reports whether the naive per-cycle loop and the
	// fast-forward engine produced identical collector fingerprints.
	EnginesAgree bool
	// Violations are the invariant-audit failures of the fast-engine
	// run (the naive run is bit-identical whenever EnginesAgree).
	Violations []Violation
}

// Name returns the cell's grid coordinates as one slash-joined label.
func (c Cell) Name() string {
	return c.Config + "/" + c.Arbiter + "/" + c.Traffic
}

// MatrixResult is the outcome of one full matrix run.
type MatrixResult struct {
	Cycles int64
	Cells  []Cell
}

// Disagreements counts cells where the two engines diverged.
func (r *MatrixResult) Disagreements() int {
	n := 0
	for _, c := range r.Cells {
		if !c.EnginesAgree {
			n++
		}
	}
	return n
}

// ViolationCount counts invariant violations across all cells.
func (r *MatrixResult) ViolationCount() int {
	n := 0
	for _, c := range r.Cells {
		n += len(c.Violations)
	}
	return n
}

// Fingerprint folds every cell fingerprint (in grid order) into one
// matrix fingerprint — the value the golden corpus pins.
func (r *MatrixResult) Fingerprint() uint64 {
	h := fnvMix(fnvOffset, uint64(r.Cycles))
	for _, c := range r.Cells {
		h = fnvMix(h, c.Fingerprint)
	}
	return h
}

// RunMatrix runs the full verification matrix: every cell simulates
// cycles bus cycles twice — naive per-cycle loop and fast-forward
// engine — asserts the collector fingerprints agree, and audits the
// result. Cells run on workers goroutines (0 consults
// LOTTERYBUS_PARALLEL then GOMAXPROCS); results are identical for any
// worker count because every cell derives its own PRNG streams.
func RunMatrix(cycles int64, workers int) (*MatrixResult, error) {
	if cycles <= 0 {
		cycles = 20000
	}
	type coord struct {
		bc BusConfig
		am ArbMaker
		gm GenMaker
	}
	var coords []coord
	for _, bc := range BusConfigs() {
		for _, am := range Arbiters() {
			for _, gm := range TrafficClasses() {
				coords = append(coords, coord{bc, am, gm})
			}
		}
	}
	cells, err := runner.Map(runner.Workers(workers), len(coords), func(i int) (Cell, error) {
		co := coords[i]
		naive, err := Build(co.bc, co.am, co.gm, true)
		if err != nil {
			return Cell{}, err
		}
		fast, err := Build(co.bc, co.am, co.gm, false)
		if err != nil {
			return Cell{}, err
		}
		if err := naive.Run(cycles); err != nil {
			return Cell{}, fmt.Errorf("check: %s/%s/%s naive: %w", co.bc.Name, co.am.Name, co.gm.Name, err)
		}
		if err := fast.Run(cycles); err != nil {
			return Cell{}, fmt.Errorf("check: %s/%s/%s fast: %w", co.bc.Name, co.am.Name, co.gm.Name, err)
		}
		cell := Cell{
			Config:       co.bc.Name,
			Arbiter:      co.am.Name,
			Traffic:      co.gm.Name,
			Fingerprint:  fast.Collector().Fingerprint(),
			EnginesAgree: naive.Collector().Fingerprint() == fast.Collector().Fingerprint(),
		}
		cell.Violations = Audit(fast)
		if !cell.EnginesAgree {
			cell.Violations = append(cell.Violations, Violation{"engine-divergence", -1, fmt.Sprintf(
				"naive fingerprint %#x, fast-forward fingerprint %#x",
				naive.Collector().Fingerprint(), cell.Fingerprint)})
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	return &MatrixResult{Cycles: cycles, Cells: cells}, nil
}
