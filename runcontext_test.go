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
		// Drive RunContext in small steps so the test exercises many
		// boundaries without simulating RunChunk cycles.
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
