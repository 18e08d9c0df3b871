package lotterybus

import (
	"context"
	"testing"
)

// chunkFixture builds a three-master mixed-traffic system exercising
// both engines (bernoulli/bursty arrivals fast-forward; the hook-free
// path is eligible for the event engine).
func chunkFixture(t *testing.T, kind string) *System {
	t.Helper()
	sys := NewSystem(Config{Seed: 7})
	sys.AddSlave("mem", 1)
	g1, err := BernoulliTraffic(0.3, 8, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := BurstyTraffic(0.2, 0.8, 200, 16, 0, 123)
	if err != nil {
		t.Fatal(err)
	}
	sys.AddMaster("a", 3, g1)
	sys.AddMaster("b", 1, g2)
	sys.AddMaster("c", 2, SaturatingTraffic(4, 0))
	var selErr error
	switch kind {
	case "lottery":
		selErr = sys.UseLottery()
	case "tdma":
		selErr = sys.UseTDMA(4, true)
	case "round-robin":
		selErr = sys.UseRoundRobin()
	}
	if selErr != nil {
		t.Fatal(selErr)
	}
	return sys
}

// TestRunContextBitIdentical pins the contract RunContext's chunking
// rests on: a run sliced at arbitrary boundaries produces the same
// fingerprint as one uninterrupted Run, for both a cancellable and a
// background context.
func TestRunContextBitIdentical(t *testing.T) {
	for _, kind := range []string{"lottery", "tdma", "round-robin"} {
		one := chunkFixture(t, kind)
		if err := one.Run(200000); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		chunked := chunkFixture(t, kind)
		// Drive runChunked directly at a tiny chunk size so the test
		// exercises many boundaries without simulating RunChunk cycles.
		var done int64
		for done < 200000 {
			step := int64(7777)
			if done+step > 200000 {
				step = 200000 - done
			}
			if err := chunked.RunContext(ctx, step); err != nil {
				t.Fatal(err)
			}
			done += step
		}
		if g, w := chunked.Collector().Fingerprint(), one.Collector().Fingerprint(); g != w {
			t.Fatalf("%s: chunked fingerprint %016x != single-run %016x", kind, g, w)
		}
	}
}

// TestRunContextCancelStopsEarly proves cancellation actually stops the
// simulation: a pre-cancelled context runs zero cycles, and one
// cancelled mid-run leaves the system short of its target with
// ctx.Err() reported.
func TestRunContextCancelStopsEarly(t *testing.T) {
	sys := chunkFixture(t, "lottery")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sys.RunContext(ctx, 10*RunChunk); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sys.Cycle() != 0 {
		t.Fatalf("pre-cancelled RunContext simulated %d cycles", sys.Cycle())
	}
}

// TestReplicaSetRunContextBitIdentical proves the replica set's chunked
// context run matches a single Run per replica.
func TestReplicaSetRunContextBitIdentical(t *testing.T) {
	build := func() *ReplicaSet {
		rs := NewReplicaSet(Config{Seed: 5}, 3)
		rs.AddSlave("mem", 0)
		rs.AddMaster("cpu", 3, func(replica int) (Generator, error) {
			return BernoulliTraffic(0.4, 8, 0, 1000+uint64(replica))
		})
		rs.AddMaster("dma", 1, func(replica int) (Generator, error) {
			return SaturatingTraffic(16, 0), nil
		})
		if err := rs.UseLottery(); err != nil {
			t.Fatal(err)
		}
		return rs
	}
	one := build()
	if err := one.Run(120000); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	chunked := build()
	for done := int64(0); done < 120000; {
		step := int64(9999)
		if done+step > 120000 {
			step = 120000 - done
		}
		if err := chunked.RunContext(ctx, step); err != nil {
			t.Fatal(err)
		}
		done += step
	}
	for i := 0; i < 3; i++ {
		if g, w := chunked.Collector(i).Fingerprint(), one.Collector(i).Fingerprint(); g != w {
			t.Fatalf("replica %d: chunked %016x != single %016x", i, g, w)
		}
	}
}
