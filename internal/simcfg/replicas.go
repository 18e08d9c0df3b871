package simcfg

import (
	"context"
	"fmt"

	"lotterybus"
	"lotterybus/internal/cache"
	"lotterybus/internal/obs"
	"lotterybus/internal/runner"
	"lotterybus/internal/stats"
)

// Replicas is the seed-replicas of one config: replica i is the config
// at Seed+i, one System each. A front end probes the result cache,
// simulates the misses and reports through Replicas.
//
// A replica's System is built only when it simulates and dropped when
// its simulation ends, so memory follows what the caller keeps of the
// collectors, not the replica count.
type Replicas struct {
	cfg   SimConfig
	proto *lotterybus.System // replica 0, never run: renders any replica's report
}

// CheckReplicas is the one rule every front end applies to a replica
// count: at least one replica, and a positive seed when there are
// several. Seed 0 is promoted to 1 for the arbiter stream, so replica 0
// (seed 0) and replica 1 (seed 1) would draw the same lotteries.
func (cfg *SimConfig) CheckReplicas(n int) error {
	if n < 1 {
		return fmt.Errorf("%d replicas: need at least one", n)
	}
	if n > 1 && cfg.Seed == 0 {
		return fmt.Errorf("a replica set needs a positive seed (seed 0 collides replica arbiter streams)")
	}
	return nil
}

// replica returns replica i's config: the config at Seed+i.
func (cfg *SimConfig) replica(i int) SimConfig {
	c := *cfg
	c.Seed += uint64(i)
	return c
}

// BuildReplicas returns the config's n seed-replicas (see CheckReplicas).
func (cfg *SimConfig) BuildReplicas(n int) (*Replicas, error) {
	if err := cfg.CheckReplicas(n); err != nil {
		return nil, err
	}
	// Reports depend on names, weights and the arbiter kind, never on
	// the seed, so one unrun System renders every replica's report —
	// also for a fully cached run that never simulates.
	proto, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	return &Replicas{cfg: *cfg, proto: proto}, nil
}

// Key returns replica i's result-cache key: the digest of its canonical
// effective configuration, which embeds the replica's seed.
func (r *Replicas) Key(i int) (cache.Key, error) {
	c := r.cfg.replica(i)
	canon, err := c.Canonical()
	if err != nil {
		return cache.Key{}, err
	}
	return cache.KeyOf(canon, c.Seed, ""), nil
}

// A Sim is one replica's simulation: the config at Seed+Replica.
type Sim struct {
	Replica int
	System  *lotterybus.System

	ctx    context.Context
	cycles int64
}

// Run simulates the config's cycles under the Simulate context, calling
// observe, when non-nil, at every chunk boundary.
func (s *Sim) Run(observe func(done, total int64)) error {
	return s.System.RunContextObserved(s.ctx, s.cycles, observe)
}

// Simulate simulates the replicas listed in miss under ctx on up to
// workers goroutines (0 consults LOTTERYBUS_PARALLEL, then GOMAXPROCS),
// building each replica's System inside its worker and handing it to
// sim, which runs it and reads its collector. With nothing in miss,
// nothing runs.
func (r *Replicas) Simulate(ctx context.Context, miss []int, workers int, sim func(*Sim) error) error {
	if len(miss) == 0 {
		return nil
	}
	_, err := runner.MapCtx(ctx, workers, len(miss), func(k int) (struct{}, error) {
		c := r.cfg.replica(miss[k])
		sys, err := c.Build()
		if err != nil {
			return struct{}{}, err
		}
		return struct{}{}, sim(&Sim{Replica: miss[k], System: sys, ctx: ctx, cycles: c.Cycles})
	})
	return err
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
