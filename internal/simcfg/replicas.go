package simcfg

import (
	"context"

	"lotterybus"
	"lotterybus/internal/obs"
	"lotterybus/internal/runner"
	"lotterybus/internal/stats"
)

// Replicas is the seed-replicas of one config — replica i is the config
// at Seed+i — on one engine: the lane engine (fused ReplicaSet batches)
// or the scalar engine (one System per replica). The engines
// produce bit-identical collectors, so a front end probes the result
// cache, simulates the misses and reports through Replicas without
// knowing which engine ran.
//
// A replica's engine state is built only when it simulates and dropped
// when its simulation ends, so memory follows what the caller keeps of
// the collectors, not the replica count.
type Replicas struct {
	cfg   SimConfig
	lanes bool
	proto *lotterybus.System // replica 0, never run: renders any replica's report
}

// BuildReplicas returns the config's seed-replicas on the engine
// LaneEngine selects.
func (cfg *SimConfig) BuildReplicas() (*Replicas, error) {
	return cfg.buildReplicas(cfg.LaneEngine())
}

// BuildScalarReplicas returns the config's seed-replicas on the scalar
// engine whatever the config: the engine with per-cycle hooks (waveform
// tracing) and the full invariant audit of package check.
func (cfg *SimConfig) BuildScalarReplicas() (*Replicas, error) {
	return cfg.buildReplicas(false)
}

func (cfg *SimConfig) buildReplicas(lanes bool) (*Replicas, error) {
	// Reports depend on names, weights and the arbiter kind, never on
	// the seed, so one unrun System renders every replica's report —
	// also for a fully cached run that never simulates.
	proto, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	return &Replicas{cfg: *cfg, lanes: lanes, proto: proto}, nil
}

// A Sim is one simulation of Replicas: a fused lane batch or one scalar
// System. It computes the replicas in Covers once Run returns.
type Sim struct {
	Covers []int  // the replicas it computes, ascending
	Engine string // "lanes" or "scalar": a label for traces and logs

	ctx    context.Context
	cycles int64
	set    *lotterybus.ReplicaSet // lane engine: lane l is replica first+l
	first  int
	sys    *lotterybus.System // scalar engine
}

// Run simulates the config's cycles under the Simulate context, calling
// observe, when non-nil, at every chunk boundary.
func (s *Sim) Run(observe func(done, total int64)) error {
	if s.set != nil {
		return s.set.RunContextObserved(s.ctx, s.cycles, observe)
	}
	return s.sys.RunContextObserved(s.ctx, s.cycles, observe)
}

// Collector returns covered replica i's statistics collector.
func (s *Sim) Collector(i int) *stats.Collector {
	if s.set != nil {
		return s.set.Collector(i - s.first)
	}
	return s.sys.Collector()
}

// System returns the scalar engine's System — for per-cycle tracing and
// the full invariant audit — or nil in a lane batch.
func (s *Sim) System() *lotterybus.System { return s.sys }

// maxLanes caps a lane batch: engine state grows with its lanes, and
// past a few hundred lanes a wider batch no longer runs faster per lane.
const maxLanes = 256

// Simulate simulates the replicas listed in miss, ascending, under ctx
// on up to workers goroutines (0 consults LOTTERYBUS_PARALLEL, then
// GOMAXPROCS), and hands each simulation to sim, which runs it and
// reads the replicas it covers. The lane engine runs the misses in
// batches, in order, each spanning at most maxLanes consecutive
// replicas from its first miss to its last, so a partly cached run
// steps only the span of its misses. The scalar engine makes one
// simulation per replica. With nothing in miss, nothing runs.
func (r *Replicas) Simulate(ctx context.Context, miss []int, workers int, sim func(*Sim) error) error {
	if len(miss) == 0 {
		return nil
	}
	if !r.lanes {
		_, err := runner.MapCtx(ctx, workers, len(miss), func(k int) (struct{}, error) {
			c := r.cfg
			c.Seed += uint64(miss[k])
			sys, err := c.Build()
			if err != nil {
				return struct{}{}, err
			}
			return struct{}{}, sim(&Sim{Covers: miss[k : k+1], Engine: "scalar", ctx: ctx, cycles: c.Cycles, sys: sys})
		})
		return err
	}
	for len(miss) > 0 {
		k := 1
		for k < len(miss) && miss[k]-miss[0] < maxLanes {
			k++
		}
		batch := miss[:k]
		miss = miss[k:]
		c := r.cfg
		c.Seed += uint64(batch[0])
		set, err := c.BuildReplicaSet(batch[k-1] - batch[0] + 1)
		if err != nil {
			return err
		}
		set.SetParallel(workers)
		if err := sim(&Sim{Covers: batch, Engine: "lanes", ctx: ctx, cycles: c.Cycles, set: set, first: batch[0]}); err != nil {
			return err
		}
	}
	return nil
}

// Report renders col as a replica's report: what the replica reports
// after simulating, with Queued zero (see System.ReportFor).
func (r *Replicas) Report(col *stats.Collector) lotterybus.Report {
	return r.proto.ReportFor(col)
}

// RecordObs folds col into reg as a replica's statistics (see
// System.RecordObsFor).
func (r *Replicas) RecordObs(col *stats.Collector, reg *obs.Registry, labels obs.Labels) {
	r.proto.RecordObsFor(col, reg, labels)
}
