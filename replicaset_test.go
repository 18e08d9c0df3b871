package lotterybus

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// rsAddMasters describes the mixed test system both builders use: a
// saturating master, a heavy Bernoulli master and a periodic master over
// a wait-state slave and a split slave — every master completes
// messages, so the reports carry no NaNs and compare with DeepEqual.
func rsAddMasters(add func(name string, weight uint64, gen func(replica int) (Generator, error))) {
	add("sat", 3, func(int) (Generator, error) {
		return SaturatingTraffic(8, 0), nil
	})
	add("bern", 2, func(replica int) (Generator, error) {
		return BernoulliTraffic(0.3, 4, 0, 1000+uint64(replica))
	})
	add("per", 1, func(int) (Generator, error) {
		return PeriodicTraffic(50, 7, 4, 1), nil
	})
}

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

// buildScalarReplica builds the standalone twin of replica l: same
// system at Seed+l, exactly as lotterysim's -replicate loop does.
func buildScalarReplica(t *testing.T, base Config, replica int, use func(*System) error) *System {
	t.Helper()
	cfg := base
	cfg.Seed = base.Seed + uint64(replica)
	sys := NewSystem(cfg)
	sys.AddSlave("mem", 2)
	sys.AddSplitSlave("io", 12)
	rsAddMasters(func(name string, weight uint64, gen func(int) (Generator, error)) {
		g, err := gen(replica)
		if err != nil {
			t.Fatal(err)
		}
		sys.AddMaster(name, weight, g)
	})
	if err := use(sys); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestReplicaSetMatchesScalarReplicas proves the facade contract for
// every arbiter selector: ReplicaSet replica l reports field for field
// what a standalone System at Seed+l reports.
func TestReplicaSetMatchesScalarReplicas(t *testing.T) {
	const replicas, cycles = 3, 20000
	base := Config{Seed: 42, MaxBurst: 16}
	selectors := []struct {
		name string
		sys  func(*System) error
		rs   func(*ReplicaSet) error
	}{
		{"lottery", (*System).UseLottery, (*ReplicaSet).UseLottery},
		{"dynamic-lottery", (*System).UseDynamicLottery, (*ReplicaSet).UseDynamicLottery},
		{"compensated-lottery", (*System).UseCompensatedLottery, (*ReplicaSet).UseCompensatedLottery},
		{"priority", (*System).UsePriority, (*ReplicaSet).UsePriority},
		{"tdma", func(s *System) error { return s.UseTDMA(4, true) },
			func(r *ReplicaSet) error { return r.UseTDMA(4, true) }},
		{"tdma1", func(s *System) error { return s.UseTDMA(4, false) },
			func(r *ReplicaSet) error { return r.UseTDMA(4, false) }},
		{"round-robin", (*System).UseRoundRobin, (*ReplicaSet).UseRoundRobin},
		{"token-ring", (*System).UseTokenRing, (*ReplicaSet).UseTokenRing},
	}
	for _, sel := range selectors {
		sel := sel
		t.Run(sel.name, func(t *testing.T) {
			t.Parallel()
			rs := NewReplicaSet(base, replicas)
			rs.AddSlave("mem", 2)
			rs.AddSplitSlave("io", 12)
			rsAddMasters(func(name string, weight uint64, gen func(int) (Generator, error)) {
				rs.AddMaster(name, weight, gen)
			})
			if err := sel.rs(rs); err != nil {
				t.Fatal(err)
			}
			if err := rs.Run(cycles); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < replicas; l++ {
				sys := buildScalarReplica(t, base, l, sel.sys)
				if err := sys.Run(cycles); err != nil {
					t.Fatal(err)
				}
				got, want := rs.Report(l), sys.Report()
				normalizeNaNs(&got)
				normalizeNaNs(&want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("replica %d: report diverges from a standalone System\nset:    %+v\nsystem: %+v", l, got, want)
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
		rs := NewReplicaSet(cfg, 2)
		rs.AddSlave("mem", 2)
		rs.AddSplitSlave("io", 12)
		rsAddMasters(func(name string, weight uint64, gen func(int) (Generator, error)) {
			rs.AddMaster(name, weight, gen)
		})
		if err := rs.UseLottery(); err != nil {
			t.Fatal(err)
		}
		if err := rs.Run(20000); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < 2; l++ {
			sys := buildScalarReplica(t, cfg, l, (*System).UseLottery)
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
// influence results, and that a generator factory error surfaces at Run.
func TestReplicaSetParallelDeterminism(t *testing.T) {
	build := func(workers int) *ReplicaSet {
		rs := NewReplicaSet(Config{Seed: 9}, 5)
		rs.AddSlave("mem", 2)
		rs.AddSplitSlave("io", 12)
		rsAddMasters(func(name string, weight uint64, gen func(int) (Generator, error)) {
			rs.AddMaster(name, weight, gen)
		})
		if err := rs.UseDynamicLottery(); err != nil {
			t.Fatal(err)
		}
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

	bad := NewReplicaSet(Config{Seed: 1}, 2)
	bad.AddSlave("mem", 0)
	bad.AddMaster("m", 1, func(replica int) (Generator, error) {
		return BernoulliTraffic(-1, 8, 0, uint64(replica))
	})
	if err := bad.UseLottery(); err != nil {
		t.Fatal(err)
	}
	if err := bad.Run(10); err == nil || !strings.Contains(err.Error(), "master m") {
		t.Errorf("factory error: Run returned %v, want it to name master m", err)
	}
}
