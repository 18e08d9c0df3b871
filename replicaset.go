package lotterybus

import (
	"lotterybus/internal/runner"
	"lotterybus/internal/stats"
)

// ReplicaSet runs N independent seed-replicas of one system — the shape
// of lotterysim's -replicate flag — across workers. It builds nothing:
// the caller supplies the Systems, replica l being the configuration at
// Seed+l (simcfg's BuildReplicaSet is the usual source).
//
//	rs := lotterybus.NewReplicaSet(sys0, sys1, sys2)
//	rs.SetParallel(2)
//	if err := rs.Run(100000); err != nil { ... }
//	fmt.Println(rs.Collector(1).Fingerprint())
//
// Run steps the replicas in contiguous blocks, one per SetParallel
// worker; results are bit-identical for any worker count.
type ReplicaSet struct {
	systems  []*System
	parallel int
}

// NewReplicaSet returns a replica set over systems, replica l being
// systems[l].
func NewReplicaSet(systems ...*System) *ReplicaSet {
	return &ReplicaSet{systems: systems}
}

// SetParallel sets the worker count sharding replicas across goroutines
// (0 consults LOTTERYBUS_PARALLEL then GOMAXPROCS). Results are
// bit-identical for any value.
func (r *ReplicaSet) SetParallel(workers int) { r.parallel = workers }

// Replicas returns the number of replicas.
func (r *ReplicaSet) Replicas() int { return len(r.systems) }

// Run simulates n bus cycles on every replica; it may be called
// repeatedly. Each SetParallel worker steps one contiguous block of
// replicas rather than taking the next free replica: Systems built one
// after another sit side by side in memory, and interleaving neighbours
// across two workers ran 32 sample-system replicas 1.7x slower on a
// 2-vCPU host. On failure Run returns the lowest-indexed failing
// block's error.
func (r *ReplicaSet) Run(n int64) error {
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

// Collector returns replica l's statistics collector — the value the
// result cache snapshots per replica.
func (r *ReplicaSet) Collector(replica int) *stats.Collector {
	return r.systems[replica].Collector()
}

// CheckInvariants audits replica l's conservation and accounting
// invariants and returns one line per violation (empty when clean):
// the full audit of System.CheckInvariants.
func (r *ReplicaSet) CheckInvariants(replica int) []string {
	return r.systems[replica].CheckInvariants()
}
