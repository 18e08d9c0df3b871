package lotterybus

import (
	"context"

	"lotterybus/internal/bus"
	"lotterybus/internal/lanes"
	"lotterybus/internal/obs"
	"lotterybus/internal/prng"
	"lotterybus/internal/stats"
)

// ReplicaSet simulates N independent seed-replicas of one system — the
// shape of lotterysim's -replicate flag — on the lane-batched engine
// (internal/lanes): one fused run loop steps every replica over
// contiguous state instead of N scattered scalar simulations. Replica l
// is bit-identical to a scalar System built from the same configuration
// with Seed+l: generators receive the per-replica seed through the
// AddMaster factory, and each Use* selector derives replica l's arbiter
// stream from Seed+l with the same label a scalar System would use.
//
//	rs := lotterybus.NewReplicaSet(lotterybus.Config{Seed: 1}, 16)
//	rs.AddSlave("mem", 0)
//	rs.AddMaster("cpu", 3, func(replica int) (lotterybus.Generator, error) {
//		return lotterybus.SaturatingTraffic(16, 0), nil
//	})
//	if err := rs.UseLottery(); err != nil { ... }
//	if err := rs.Run(100000); err != nil { ... }
//	fmt.Println(rs.Report(0))
//
// The engine supports the replicate shape only: no per-cycle callbacks,
// waveform tracing, fault injection, split-transaction watchdog or
// starvation detector. Configurations arming those are rejected with a
// clear error at Run; use per-replica scalar Systems instead.
type ReplicaSet struct {
	cfg     Config
	eng     *lanes.Engine
	weights []uint64
}

// NewReplicaSet returns an empty replica set of `replicas` lanes.
func NewReplicaSet(cfg Config, replicas int) *ReplicaSet {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &ReplicaSet{
		cfg: cfg,
		eng: lanes.New(bus.Config{
			MaxBurst:            cfg.MaxBurst,
			ArbLatency:          cfg.ArbLatency,
			RetryLimit:          cfg.RetryLimit,
			RetryBackoff:        cfg.RetryBackoff,
			SplitTimeout:        cfg.SplitTimeout,
			StarvationThreshold: cfg.StarvationThreshold,
		}, replicas),
	}
}

// AddMaster attaches a master with a QoS weight (>= 1); gen constructs
// replica l's traffic generator and is typically closed over the base
// seed as Seed+l (nil gen, or a factory returning a nil Generator,
// leaves the master silent). Returns the master index.
func (r *ReplicaSet) AddMaster(name string, weight uint64, gen func(replica int) (Generator, error)) int {
	if weight == 0 {
		weight = 1
	}
	var fac func(int) (bus.Generator, error)
	if gen != nil {
		fac = func(lane int) (bus.Generator, error) {
			g, err := gen(lane)
			if err != nil || g == nil {
				return nil, err
			}
			return g, nil
		}
	}
	r.eng.AddMaster(name, bus.MasterOpts{Tickets: weight}, fac)
	r.weights = append(r.weights, weight)
	return len(r.weights) - 1
}

// AddSlave attaches a slave with the given per-word wait states and
// returns its index.
func (r *ReplicaSet) AddSlave(name string, waitStates int) int {
	return r.eng.AddSlave(name, bus.SlaveOpts{WaitStates: waitStates})
}

// AddSplitSlave attaches a split-transaction slave (see
// System.AddSplitSlave).
func (r *ReplicaSet) AddSplitSlave(name string, latency int) int {
	return r.eng.AddSlave(name, bus.SlaveOpts{SplitLatency: latency})
}

// UseLottery selects the static LOTTERYBUS arbiter, one independent
// instance per replica seeded exactly as a scalar System at Seed+l.
func (r *ReplicaSet) UseLottery() error {
	seeds := prng.LaneSeeds(r.cfg.Seed, staticLotteryLabel, r.eng.Lanes())
	r.eng.SetArbiter(func(lane int) (bus.Arbiter, error) {
		return buildStaticLottery(seeds[lane], r.weights)
	})
	return nil
}

// UseDynamicLottery selects the dynamic LOTTERYBUS arbiter per replica.
func (r *ReplicaSet) UseDynamicLottery() error {
	seeds := prng.LaneSeeds(r.cfg.Seed, dynamicLotteryLabel, r.eng.Lanes())
	r.eng.SetArbiter(func(lane int) (bus.Arbiter, error) {
		return buildDynamicLottery(seeds[lane], len(r.weights))
	})
	return nil
}

// UseCompensatedLottery selects the compensated lottery per replica.
func (r *ReplicaSet) UseCompensatedLottery() error {
	seeds := prng.LaneSeeds(r.cfg.Seed, compensatedLotteryLabel, r.eng.Lanes())
	r.eng.SetArbiter(func(lane int) (bus.Arbiter, error) {
		return buildCompensatedLottery(seeds[lane], r.weights, r.cfg.MaxBurst)
	})
	return nil
}

// UsePriority selects static-priority arbitration (deterministic; every
// replica shares the scheme but owns its instance).
func (r *ReplicaSet) UsePriority() error {
	weights := r.weights
	r.eng.SetArbiter(func(int) (bus.Arbiter, error) { return newPriorityArb(weights) })
	return nil
}

// UseTDMA selects TDMA arbitration (see System.UseTDMA).
func (r *ReplicaSet) UseTDMA(slotsPerWeight int, twoLevel bool) error {
	weights := r.weights
	r.eng.SetArbiter(func(int) (bus.Arbiter, error) {
		return buildTDMA(weights, slotsPerWeight, twoLevel)
	})
	return nil
}

// UseRoundRobin selects weight-blind round-robin arbitration.
func (r *ReplicaSet) UseRoundRobin() error {
	n := len(r.weights)
	r.eng.SetArbiter(func(int) (bus.Arbiter, error) { return newRoundRobinArb(n) })
	return nil
}

// UseTokenRing selects token-ring arbitration.
func (r *ReplicaSet) UseTokenRing() error {
	n := len(r.weights)
	r.eng.SetArbiter(func(int) (bus.Arbiter, error) { return newTokenRingArb(n) })
	return nil
}

// SetParallel sets the worker count sharding replicas across goroutines
// (0 consults LOTTERYBUS_PARALLEL then GOMAXPROCS). Results are
// bit-identical for any value.
func (r *ReplicaSet) SetParallel(workers int) { r.eng.Parallel = workers }

// Replicas returns the number of replicas.
func (r *ReplicaSet) Replicas() int { return r.eng.Lanes() }

// NumMasters returns the number of masters.
func (r *ReplicaSet) NumMasters() int { return r.eng.NumMasters() }

// Weight returns a master's QoS weight.
func (r *ReplicaSet) Weight(master int) uint64 { return r.weights[master] }

// Cycle returns the current simulation cycle.
func (r *ReplicaSet) Cycle() int64 { return r.eng.Cycle() }

// Run simulates n bus cycles on every replica; it may be called
// repeatedly. Replicas run sharded across SetParallel workers.
func (r *ReplicaSet) Run(n int64) error { return r.eng.Run(n) }

// RunContext simulates n bus cycles on every replica like Run, checking
// ctx between RunChunk-cycle slices (see System.RunContext): chunked
// lane runs are bit-identical to a single Run, so cancellability costs
// nothing per cycle. On cancellation it returns ctx.Err() with every
// replica stopped at the same chunk boundary.
func (r *ReplicaSet) RunContext(ctx context.Context, n int64) error {
	return runChunked(ctx, n, r.eng.Run)
}

// RunContextObserved is RunContext with a per-chunk progress observer
// (see System.RunContextObserved); the observer fires between chunks
// only, so the fused lane loop is untouched.
func (r *ReplicaSet) RunContextObserved(ctx context.Context, n int64, observe func(done, total int64)) error {
	return runChunkedObserved(ctx, n, r.eng.Run, observe)
}

// Collector returns replica l's statistics collector, or nil before
// the engine is built by the first Run — the value the result cache
// snapshots per replica.
func (r *ReplicaSet) Collector(replica int) *stats.Collector {
	return r.eng.Collector(replica)
}

// Report returns replica l's simulation statistics — field for field
// what a scalar System at Seed+l reports.
func (r *ReplicaSet) Report(replica int) Report {
	return r.reportFrom(r.eng.Collector(replica), replica, true)
}

// ReportFor builds the Report replica `replica` would produce had col
// been its collector — the result cache's warm path (see
// System.ReportFor): Dropped comes from the collector's in-run drop
// counter and Queued is zero.
func (r *ReplicaSet) ReportFor(replica int, col *stats.Collector) Report {
	return r.reportFrom(col, replica, false)
}

// reportFrom renders col as replica `replica`'s report; live selects
// the engine's drop and queue-depth counters over the collector-only
// view.
func (r *ReplicaSet) reportFrom(col *stats.Collector, replica int, live bool) Report {
	if col == nil {
		return Report{}
	}
	rep := Report{
		Arbiter:     r.eng.ArbiterName(),
		Cycles:      col.Cycles(),
		Utilization: col.Utilization(),
	}
	for i := 0; i < r.eng.NumMasters(); i++ {
		dropped, queued := col.Drops(i), 0
		if live {
			dropped, queued = r.eng.Dropped(replica, i), r.eng.QueueLen(replica, i)
		}
		rep.Masters = append(rep.Masters, masterReport(col, i, r.eng.MasterName(i), r.weights[i], dropped, queued))
	}
	return rep
}

// RecordObs folds replica l's statistics into an observability registry
// under the given labels (see System.RecordObs).
func (r *ReplicaSet) RecordObs(replica int, reg *obs.Registry, labels obs.Labels) {
	r.RecordObsFor(r.eng.Collector(replica), reg, labels)
}

// RecordObsFor is RecordObs over an explicit collector (the result
// cache's warm path; see System.RecordObsFor).
func (r *ReplicaSet) RecordObsFor(col *stats.Collector, reg *obs.Registry, labels obs.Labels) {
	if col == nil {
		return
	}
	names := make([]string, r.eng.NumMasters())
	for i := range names {
		names[i] = r.eng.MasterName(i)
	}
	obs.RecordRun(reg, labels, names, col)
}

// CheckInvariants audits replica l's conservation and accounting
// invariants and returns one line per violation (empty when clean).
func (r *ReplicaSet) CheckInvariants(replica int) []string {
	return r.eng.Audit(replica)
}
