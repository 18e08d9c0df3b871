package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"

	"lotterybus"
	"lotterybus/internal/obs"
	"lotterybus/internal/prng"
	"lotterybus/internal/simcfg"
)

// replicateBench runs seed replicas of the sample system on the lane
// engine: one operation is one BuildReplicaSet + Run of every replica.
type replicateBench struct {
	cfg      simcfg.SimConfig
	replicas int
	mu       sync.Mutex
	digests  map[int]string
	last     *lotterybus.ReplicaSet // the latest pass, audited by check
}

// positiveSeed maps a derived seed into [1, 2^63), so seed+k stays
// positive for every replica offset the benchmark adds.
func positiveSeed(root uint64, label string) uint64 {
	return prng.Derive(root, label)>>1 | 1
}

func setupReplicate(e *env) (*instance, error) {
	r := &replicateBench{cfg: sampleConfig(positiveSeed(e.seed, "replicate")), replicas: e.sz.replicas, digests: map[int]string{}}
	r.cfg.Cycles = e.sz.repCycles
	warm := r.cfg
	warm.Cycles /= e.sz.warmupDiv
	if _, err := r.pass(warm, nil, nil); err != nil {
		return nil, err
	}
	return &instance{
		clients:   1,
		minOps:    e.sz.minPasses,
		opSpan:    "replicate.pass",
		op:        r.op,
		check:     r.check,
		simCycles: int64(r.replicas) * r.cfg.Cycles,
		close:     func() {},
	}, nil
}

// buildReplicaSet builds a replica set of cfg and runs its first cycle,
// which is when the lane engine builds its lanes. A Run split in two is
// bit-identical to a single one.
func buildReplicaSet(cfg simcfg.SimConfig, replicas int) (*lotterybus.ReplicaSet, error) {
	rs, err := cfg.BuildReplicaSet(replicas)
	if err != nil {
		return nil, err
	}
	rs.SetParallel(parallel)
	return rs, rs.Run(1)
}

// pass builds and runs one replica set of cfg.
func (r *replicateBench) pass(cfg simcfg.SimConfig, tr *obs.Trace, parent *obs.Span) (*lotterybus.ReplicaSet, error) {
	sp := tr.Start("simcfg.build_replicaset", parent)
	rs, err := buildReplicaSet(cfg, r.replicas)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start("lanes.run", parent)
	err = rs.Run(cfg.Cycles - 1)
	sp.End()
	return rs, err
}

func (r *replicateBench) op(_, i int, tr *obs.Trace, parent *obs.Span) (time.Duration, error) {
	t0 := obs.Now()
	rs, err := r.pass(r.cfg, tr, parent)
	lat := obs.Now().Sub(t0)
	if err != nil {
		return lat, err
	}
	var fps bytes.Buffer
	for l := 0; l < r.replicas; l++ {
		fmt.Fprintf(&fps, "%016x\n", rs.Collector(l).Fingerprint())
	}
	r.mu.Lock()
	r.digests[i] = digestOf(fps.Bytes())
	r.last = rs
	r.mu.Unlock()
	return lat, nil
}

// check requires identical fingerprints on every pass, the first and
// last replica to match the scalar engine's System.Run, and every
// replica's conservation audit to be clean.
func (r *replicateBench) check(n int) (string, []int, error) {
	digest, bad, err := sameDigest(r.digests, n)
	if err != nil {
		return digest, bad, err
	}
	var problems []string
	for _, l := range []int{0, r.replicas - 1} {
		c := r.cfg
		c.Seed += uint64(l)
		sys, err := c.Build()
		if err != nil {
			return digest, bad, err
		}
		if err := sys.Run(c.Cycles); err != nil {
			return digest, bad, err
		}
		if got, want := r.last.Collector(l).Fingerprint(), sys.Collector().Fingerprint(); got != want {
			problems = append(problems, fmt.Sprintf("replica %d fingerprint %016x, scalar engine %016x", l, got, want))
		}
	}
	for l := 0; l < r.replicas; l++ {
		for _, v := range r.last.CheckInvariants(l) {
			problems = append(problems, fmt.Sprintf("replica %d: %s", l, v))
		}
	}
	if len(problems) > 0 {
		return digest, bad, fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return digest, bad, nil
}
