package lotterybus

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// normalizeNaNs replaces NaN latency fields (starved masters) with a
// sentinel so DeepEqual can compare reports — NaN != NaN would otherwise
// flag two identical reports as diverging.
func normalizeNaNs(rep *Report) {
	for i := range rep.Masters {
		m := &rep.Masters[i]
		for _, f := range []*float64{
			&m.PerWordLatency, &m.LatencyP50, &m.LatencyP95,
			&m.LatencyP99, &m.LatencyMax, &m.AvgMessageLatency,
		} {
			if math.IsNaN(*f) {
				*f = -1
			}
		}
	}
}

// buildReplica builds replica l of the mixed test system at Seed+l: a
// saturating master, a heavy Bernoulli master seeded per replica and a
// periodic master over a wait-state slave and a split slave.
func buildReplica(t *testing.T, base Config, replica int, use func(*System) error) *System {
	t.Helper()
	cfg := base
	cfg.Seed = base.Seed + uint64(replica)
	sys := NewSystem(cfg)
	sys.AddSlave("mem", 2)
	sys.AddSplitSlave("io", 12)
	bern, err := BernoulliTraffic(0.3, 4, 0, 1000+uint64(replica))
	if err != nil {
		t.Fatal(err)
	}
	sys.AddMaster("sat", 3, SaturatingTraffic(8, 0))
	sys.AddMaster("bern", 2, bern)
	sys.AddMaster("per", 1, PeriodicTraffic(50, 7, 4, 1))
	if err := use(sys); err != nil {
		t.Fatal(err)
	}
	return sys
}

// buildReplicaSet builds replicas 0..n-1 of the mixed test system as one
// ReplicaSet and returns it with its Systems.
func buildReplicaSet(t *testing.T, base Config, n int, use func(*System) error) (*ReplicaSet, []*System) {
	t.Helper()
	systems := make([]*System, n)
	for l := range systems {
		systems[l] = buildReplica(t, base, l, use)
	}
	return NewReplicaSet(systems...), systems
}

// TestReplicaSetMatchesScalarReplicas proves the runner contract for
// every arbiter selector: replica l of a ReplicaSet run on two workers
// reports field for field what the same System run alone reports, and
// passes the full audit.
func TestReplicaSetMatchesScalarReplicas(t *testing.T) {
	const replicas, cycles = 3, 20000
	base := Config{Seed: 42, MaxBurst: 16}
	selectors := []struct {
		name string
		use  func(*System) error
	}{
		{"lottery", (*System).UseLottery},
		{"dynamic-lottery", (*System).UseDynamicLottery},
		{"compensated-lottery", (*System).UseCompensatedLottery},
		{"priority", (*System).UsePriority},
		{"tdma", func(s *System) error { return s.UseTDMA(4, true) }},
		{"tdma1", func(s *System) error { return s.UseTDMA(4, false) }},
		{"round-robin", (*System).UseRoundRobin},
		{"token-ring", (*System).UseTokenRing},
	}
	for _, sel := range selectors {
		sel := sel
		t.Run(sel.name, func(t *testing.T) {
			t.Parallel()
			rs, systems := buildReplicaSet(t, base, replicas, sel.use)
			rs.SetParallel(2)
			if err := rs.Run(cycles); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < replicas; l++ {
				sys := buildReplica(t, base, l, sel.use)
				if err := sys.Run(cycles); err != nil {
					t.Fatal(err)
				}
				got, want := systems[l].Report(), sys.Report()
				normalizeNaNs(&got)
				normalizeNaNs(&want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("replica %d: report diverges from a standalone System\nset:    %+v\nsystem: %+v", l, got, want)
				}
				if g, w := rs.Collector(l).Fingerprint(), sys.Collector().Fingerprint(); g != w {
					t.Errorf("replica %d: fingerprint %#x, standalone System %#x", l, g, w)
				}
				if viol := rs.CheckInvariants(l); len(viol) != 0 {
					t.Errorf("replica %d: %s", l, strings.Join(viol, "; "))
				}
			}
		})
	}
}

// TestReplicaSetRunsPerCycleFeatures proves configs arming the split
// watchdog or the starvation detector run in a replica set, replica l
// bit-identical to a standalone System at Seed+l.
func TestReplicaSetRunsPerCycleFeatures(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 1, SplitTimeout: 10},
		{Seed: 1, StarvationThreshold: 10},
	} {
		rs, _ := buildReplicaSet(t, cfg, 2, (*System).UseLottery)
		if err := rs.Run(20000); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < 2; l++ {
			sys := buildReplica(t, cfg, l, (*System).UseLottery)
			if err := sys.Run(20000); err != nil {
				t.Fatal(err)
			}
			if got, want := rs.Collector(l).Fingerprint(), sys.Collector().Fingerprint(); got != want {
				t.Errorf("%+v replica %d: fingerprint %#x, standalone System %#x", cfg, l, got, want)
			}
		}
	}
}

// TestReplicaSetParallelDeterminism proves the worker count does not
// influence results.
func TestReplicaSetParallelDeterminism(t *testing.T) {
	build := func(workers int) *ReplicaSet {
		rs, _ := buildReplicaSet(t, Config{Seed: 9}, 5, (*System).UseDynamicLottery)
		rs.SetParallel(workers)
		return rs
	}
	serial, parallel := build(1), build(3)
	if err := serial.Run(20000); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Run(20000); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 5; l++ {
		if got, want := parallel.Collector(l).Fingerprint(), serial.Collector(l).Fingerprint(); got != want {
			t.Errorf("replica %d: 3-worker fingerprint %#x, serial %#x", l, got, want)
		}
	}
}
