package lotterybus

import (
	"context"
	"fmt"

	"lotterybus/internal/obs"
	"lotterybus/internal/runner"
	"lotterybus/internal/stats"
)

// ReplicaSet simulates N independent seed-replicas of one system — the
// shape of lotterysim's -replicate flag. Replica l is a System built
// from the same configuration at Seed+l: generators receive the replica
// index through the AddMaster factory, and each Use* selector applies
// the System selector to every replica, so replica l's arbiter stream
// is derived from Seed+l exactly as a standalone System's would be.
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
// Run steps the replicas in contiguous blocks, one per SetParallel
// worker; results are bit-identical for any worker count.
type ReplicaSet struct {
	systems  []*System
	parallel int
	err      error // the first generator factory error, reported by Run
}

// NewReplicaSet returns an empty replica set of `replicas` systems.
func NewReplicaSet(cfg Config, replicas int) *ReplicaSet {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	r := &ReplicaSet{systems: make([]*System, replicas)}
	for l := range r.systems {
		c := cfg
		c.Seed += uint64(l)
		r.systems[l] = NewSystem(c)
	}
	return r
}

// AddMaster attaches a master with a QoS weight (>= 1); gen constructs
// replica l's traffic generator and is typically closed over the base
// seed as Seed+l (nil gen, or a factory returning a nil Generator,
// leaves the master silent). A factory error is reported by Run.
// Returns the master index.
func (r *ReplicaSet) AddMaster(name string, weight uint64, gen func(replica int) (Generator, error)) int {
	idx := 0
	for l, s := range r.systems {
		var g Generator
		if gen != nil {
			var err error
			if g, err = gen(l); err != nil && r.err == nil {
				r.err = fmt.Errorf("lotterybus: replica %d master %s: %w", l, name, err)
			}
		}
		idx = s.AddMaster(name, weight, g)
	}
	return idx
}

// AddSlave attaches a slave with the given per-word wait states and
// returns its index.
func (r *ReplicaSet) AddSlave(name string, waitStates int) int {
	return r.eachSlave(func(s *System) int { return s.AddSlave(name, waitStates) })
}

// AddSplitSlave attaches a split-transaction slave (see
// System.AddSplitSlave).
func (r *ReplicaSet) AddSplitSlave(name string, latency int) int {
	return r.eachSlave(func(s *System) int { return s.AddSplitSlave(name, latency) })
}

func (r *ReplicaSet) eachSlave(add func(*System) int) int {
	idx := 0
	for _, s := range r.systems {
		idx = add(s)
	}
	return idx
}

// use applies a System arbiter selector to every replica.
func (r *ReplicaSet) use(sel func(*System) error) error {
	for _, s := range r.systems {
		if err := sel(s); err != nil {
			return err
		}
	}
	return nil
}

// UseLottery selects the static LOTTERYBUS arbiter on every replica.
func (r *ReplicaSet) UseLottery() error { return r.use((*System).UseLottery) }

// UseDynamicLottery selects the dynamic LOTTERYBUS arbiter per replica.
func (r *ReplicaSet) UseDynamicLottery() error { return r.use((*System).UseDynamicLottery) }

// UseCompensatedLottery selects the compensated lottery per replica.
func (r *ReplicaSet) UseCompensatedLottery() error { return r.use((*System).UseCompensatedLottery) }

// UsePriority selects static-priority arbitration on every replica.
func (r *ReplicaSet) UsePriority() error { return r.use((*System).UsePriority) }

// UseTDMA selects TDMA arbitration (see System.UseTDMA).
func (r *ReplicaSet) UseTDMA(slotsPerWeight int, twoLevel bool) error {
	return r.use(func(s *System) error { return s.UseTDMA(slotsPerWeight, twoLevel) })
}

// UseRoundRobin selects weight-blind round-robin arbitration.
func (r *ReplicaSet) UseRoundRobin() error { return r.use((*System).UseRoundRobin) }

// UseTokenRing selects token-ring arbitration.
func (r *ReplicaSet) UseTokenRing() error { return r.use((*System).UseTokenRing) }

// SetParallel sets the worker count sharding replicas across goroutines
// (0 consults LOTTERYBUS_PARALLEL then GOMAXPROCS). Results are
// bit-identical for any value.
func (r *ReplicaSet) SetParallel(workers int) { r.parallel = workers }

// Replicas returns the number of replicas.
func (r *ReplicaSet) Replicas() int { return len(r.systems) }

// NumMasters returns the number of masters.
func (r *ReplicaSet) NumMasters() int {
	if len(r.systems) == 0 {
		return 0
	}
	return r.systems[0].NumMasters()
}

// Weight returns a master's QoS weight.
func (r *ReplicaSet) Weight(master int) uint64 { return r.systems[0].Weight(master) }

// Cycle returns the current simulation cycle.
func (r *ReplicaSet) Cycle() int64 {
	if len(r.systems) == 0 {
		return 0
	}
	return r.systems[0].Cycle()
}

// Run simulates n bus cycles on every replica; it may be called
// repeatedly. Each SetParallel worker steps one contiguous block of
// replicas rather than taking the next free replica: NewReplicaSet
// allocates the Systems side by side, and interleaving neighbours
// across two workers ran 32 sample-system replicas 1.7x slower on a
// 2-vCPU host. On failure Run returns the lowest-indexed failing
// block's error.
func (r *ReplicaSet) Run(n int64) error {
	if r.err != nil {
		return r.err
	}
	workers := min(runner.Workers(r.parallel), len(r.systems))
	_, err := runner.Map(workers, workers, func(w int) (struct{}, error) {
		for _, s := range r.systems[len(r.systems)*w/workers : len(r.systems)*(w+1)/workers] {
			if err := s.Run(n); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	})
	return err
}

// RunContext simulates n bus cycles on every replica like Run, checking
// ctx between RunChunk-cycle slices (see System.RunContext). On
// cancellation it returns ctx.Err() with every replica stopped at the
// same chunk boundary.
func (r *ReplicaSet) RunContext(ctx context.Context, n int64) error {
	return runChunked(ctx, n, r.Run)
}

// RunContextObserved is RunContext with a per-chunk progress observer
// (see System.RunContextObserved); the observer fires between chunks
// only.
func (r *ReplicaSet) RunContextObserved(ctx context.Context, n int64, observe func(done, total int64)) error {
	return runChunkedObserved(ctx, n, r.Run, observe)
}

// Collector returns replica l's statistics collector — the value the
// result cache snapshots per replica.
func (r *ReplicaSet) Collector(replica int) *stats.Collector {
	return r.systems[replica].Collector()
}

// Report returns replica l's simulation statistics (System.Report).
func (r *ReplicaSet) Report(replica int) Report { return r.systems[replica].Report() }

// ReportFor builds the Report replica `replica` would produce had col
// been its collector (see System.ReportFor).
func (r *ReplicaSet) ReportFor(replica int, col *stats.Collector) Report {
	return r.systems[replica].ReportFor(col)
}

// RecordObs folds replica l's statistics into an observability registry
// under the given labels (see System.RecordObs).
func (r *ReplicaSet) RecordObs(replica int, reg *obs.Registry, labels obs.Labels) {
	r.systems[replica].RecordObs(reg, labels)
}

// RecordObsFor is RecordObs over an explicit collector (the result
// cache's warm path; see System.RecordObsFor).
func (r *ReplicaSet) RecordObsFor(col *stats.Collector, reg *obs.Registry, labels obs.Labels) {
	if col == nil || len(r.systems) == 0 {
		return
	}
	r.systems[0].RecordObsFor(col, reg, labels)
}

// CheckInvariants audits replica l's conservation and accounting
// invariants and returns one line per violation (empty when clean):
// the full audit of System.CheckInvariants.
func (r *ReplicaSet) CheckInvariants(replica int) []string {
	return r.systems[replica].CheckInvariants()
}
