package simcfg

import (
	"context"
	"strings"
	"sync"
	"testing"

	"lotterybus"
	"lotterybus/internal/cache"
)

// TestBuildReplicaSetMatchesScalarReplicas pins the replica set's
// contract: for every arbiter kind, replica i of BuildReplicaSet
// fingerprints exactly as Build does for the same config at Seed+i, and
// passes the full audit.
func TestBuildReplicaSetMatchesScalarReplicas(t *testing.T) {
	const replicas, cycles = 3, 10000
	for _, kind := range []string{"lottery", "dynamic-lottery", "compensated-lottery", "priority", "tdma", "tdma1", "round-robin", "token-ring"} {
		cfg := SampleConfig()
		cfg.Cycles = cycles
		cfg.Arbiter.Kind = kind
		rs, err := cfg.BuildReplicaSet(replicas)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := rs.Run(cfg.Cycles); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i := 0; i < replicas; i++ {
			c := *cfg
			c.Seed = cfg.Seed + uint64(i)
			sys, err := c.Build()
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if err := sys.Run(c.Cycles); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if got, want := rs.Collector(i).Fingerprint(), sys.Collector().Fingerprint(); got != want {
				t.Errorf("%s replica %d: fingerprint %016x, Build() at Seed+%d %016x", kind, i, got, i, want)
			}
			if viol := rs.CheckInvariants(i); len(viol) != 0 {
				t.Errorf("%s replica %d: %s", kind, i, strings.Join(viol, "; "))
			}
		}
	}
}

// TestEngineSelection pins Simulate's contract for plain configs and
// for each config that arms the resilience machinery or uses seed 0:
// one Sim per missed replica, replica i fingerprints exactly as Build() at
// Seed+i — also when only some replicas miss — and the config alone
// selects the engine: a replica fast-forwards, faults, the split
// watchdog and the starvation detector included, unless a babbler that
// never stops keeps the whole run on the per-cycle loop. Seed 0 runs as
// a single replica; several are rejected.
func TestEngineSelection(t *testing.T) {
	several := [][]int{{0, 1, 2}, {1, 3}}
	for _, tc := range []struct {
		name   string
		edit   func(*SimConfig)
		fast   bool
		misses [][]int
	}{
		{"sample", func(*SimConfig) {}, true, several},
		{"faults", func(c *SimConfig) { c.Faults = &lotterybus.FaultConfig{SlaveError: 0.01} }, true, several},
		{"splitTimeout", func(c *SimConfig) { c.Resilience = &ResilienceConfig{SplitTimeout: 500} }, true, several},
		{"starvationThreshold", func(c *SimConfig) { c.Resilience = &ResilienceConfig{StarvationThreshold: 200} }, true, several},
		{"endless babbler", func(c *SimConfig) {
			c.Faults = &lotterybus.FaultConfig{Babblers: []lotterybus.Babbler{{Master: 0, Load: 0.01, Words: 2}}}
		}, false, several},
		{"seed 0", func(c *SimConfig) { c.Seed = 0 }, true, [][]int{{0}}},
		{"retry knobs only", func(c *SimConfig) { c.Resilience = &ResilienceConfig{RetryLimit: 4, RetryBackoff: 2} }, true, several},
	} {
		cfg := SampleConfig()
		cfg.Cycles = 20000
		tc.edit(cfg)
		n := 0 // enough replicas for every miss list
		for _, miss := range tc.misses {
			for _, i := range miss {
				n = max(n, i+1)
			}
		}
		reps, err := cfg.BuildReplicas(n)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cfg.Seed == 0 {
			if _, err := cfg.BuildReplicas(3); err == nil || !strings.Contains(err.Error(), "seed") {
				t.Errorf("%s: BuildReplicas(3) error %v, want seed rejection", tc.name, err)
			}
		}
		for _, miss := range tc.misses {
			got := map[int]uint64{}
			var mu sync.Mutex
			err = reps.Simulate(context.Background(), miss, 2, func(sim *Sim) error {
				if err := sim.Run(nil); err != nil {
					return err
				}
				if ff := sim.System.FastForwardedCycles(); (ff > 0) != tc.fast {
					t.Errorf("%s replica %d: fast-forwarded %d cycles, want fast-forward %v", tc.name, sim.Replica, ff, tc.fast)
				}
				mu.Lock()
				defer mu.Unlock()
				if _, dup := got[sim.Replica]; dup {
					t.Errorf("%s: replica %d simulated twice", tc.name, sim.Replica)
				}
				got[sim.Replica] = sim.System.Collector().Fingerprint()
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(got) != len(miss) {
				t.Errorf("%s: simulated %v, want exactly %v", tc.name, got, miss)
			}
			for _, i := range miss {
				c := *cfg
				c.Seed = cfg.Seed + uint64(i)
				sys, err := c.Build()
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if err := sys.Run(c.Cycles); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if want := sys.Collector().Fingerprint(); got[i] != want {
					t.Errorf("%s replica %d of %v: fingerprint %016x, Build() at Seed+%d %016x", tc.name, i, miss, got[i], i, want)
				}
			}
		}
	}
}

// TestSimulateBoundsLaneBatches pins how far one simulation reaches: a
// sparse miss list of more than 256 replicas yields exactly one Sim per
// missed replica, in miss order on one worker, and no replica between
// the misses is simulated.
func TestSimulateBoundsLaneBatches(t *testing.T) {
	cfg := SampleConfig()
	cfg.Cycles = 2000
	miss := []int{3}
	for i := 10; i < 10+256+5; i++ {
		miss = append(miss, i)
	}
	reps, err := cfg.BuildReplicas(miss[len(miss)-1] + 1)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	got := map[int]uint64{}
	err = reps.Simulate(context.Background(), miss, 1, func(sim *Sim) error {
		order = append(order, sim.Replica)
		if err := sim.Run(nil); err != nil {
			return err
		}
		got[sim.Replica] = sim.System.Collector().Fingerprint()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(miss) {
		t.Fatalf("%d simulations for %d missed replicas", len(order), len(miss))
	}
	for k, i := range miss {
		if order[k] != i {
			t.Fatalf("simulation %d covers replica %d, want %d", k, order[k], i)
		}
	}
	for _, i := range []int{3, 10, 2 + 256, 3 + 256, miss[len(miss)-1]} {
		c := *cfg
		c.Seed = cfg.Seed + uint64(i)
		sys, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(c.Cycles); err != nil {
			t.Fatal(err)
		}
		if want := sys.Collector().Fingerprint(); got[i] != want {
			t.Errorf("replica %d: fingerprint %016x, Build() at Seed+%d %016x", i, got[i], i, want)
		}
	}
}

// TestReplicaKey pins replica i's cache key to the digest of the config
// at Seed+i, the key every result cache written so far was filled under.
func TestReplicaKey(t *testing.T) {
	cfg := SampleConfig()
	reps, err := cfg.BuildReplicas(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[cache.Key]int{}
	for i := 0; i < 3; i++ {
		got, err := reps.Key(i)
		if err != nil {
			t.Fatal(err)
		}
		c := *cfg
		c.Seed = cfg.Seed + uint64(i)
		canon, err := c.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if want := cache.KeyOf(canon, c.Seed, ""); got != want {
			t.Errorf("replica %d: key %s, want %s", i, got, want)
		}
		if j, dup := seen[got]; dup {
			t.Errorf("replicas %d and %d share key %s", j, i, got)
		}
		seen[got] = i
	}
}

// TestBuildReplicaSetRejects pins the clear-error contract for replica
// counts the seed rule refuses and for configs Build refuses, and that
// faults and the resilience machinery are not among them: replica 1 of
// such a set is Build() at Seed+1.
func TestBuildReplicaSetRejects(t *testing.T) {
	cfg := SampleConfig()
	cfg.Seed = 0
	if _, err := cfg.BuildReplicaSet(2); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("seed 0: error %v, want seed rejection", err)
	}
	if _, err := SampleConfig().BuildReplicaSet(0); err == nil {
		t.Error("zero replicas accepted")
	}

	cfg = SampleConfig()
	cfg.Arbiter.Kind = "fcfs"
	if _, err := cfg.BuildReplicaSet(2); err == nil {
		t.Error("unknown arbiter accepted")
	}

	for name, edit := range map[string]func(*SimConfig){
		"faults":         func(c *SimConfig) { c.Faults = &lotterybus.FaultConfig{SlaveError: 0.01} },
		"split watchdog": func(c *SimConfig) { c.Resilience = &ResilienceConfig{SplitTimeout: 500, StarvationThreshold: 200} },
	} {
		cfg := SampleConfig()
		cfg.Cycles = 5000
		edit(cfg)
		rs, err := cfg.BuildReplicaSet(2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := rs.Run(cfg.Cycles); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := *cfg
		c.Seed++
		sys, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(c.Cycles); err != nil {
			t.Fatal(err)
		}
		if got, want := rs.Collector(1).Fingerprint(), sys.Collector().Fingerprint(); got != want {
			t.Errorf("%s replica 1: fingerprint %016x, Build() at Seed+1 %016x", name, got, want)
		}
	}
}
