package check

import (
	"fmt"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/fault"
	"lotterybus/internal/prng"
	"lotterybus/internal/traffic"
)

// ResilienceCase is one bus shape with the resilience machinery armed:
// fault injection, the retry/backoff path, the split watchdog, the
// starvation detector or a babble window. The golden corpus pins each
// case's fingerprint, and the fast-forward equivalence suite runs each
// case on both engines.
type ResilienceCase struct {
	Name string
	// Build returns a fresh bus (fresh generator, arbiter and fault
	// streams), on the naive loop when disableFastForward is set.
	Build func(disableFastForward bool) (*bus.Bus, error)
}

// ResilienceCases returns the resilience-armed bus shapes:
//
//   - degradation: the degradation sweep's busy four-master bus (16-word
//     Bernoulli messages at 0.72 words/cycle each into one memory) under
//     a 1:2:3:4 static lottery, with slave and word errors, retry limit 8,
//     backoff 2 and starvation threshold 1000;
//   - degradation-priority: the same shape at load 0.2 under static
//     priority with one wait state per word and starvation threshold
//     300, so the low-priority masters' waits cross the threshold and
//     end (starvation events) or never end;
//   - split-hang: four light masters over a memory and a 12-cycle split
//     slave that drops 10% of its requests, freed by a 40-cycle
//     watchdog, with rare slave errors;
//   - babble: four light masters under a static lottery, master 0
//     babbling 8-word messages at load 0.5 inside [1500, 3000).
func ResilienceCases() []ResilienceCase {
	tag := func(c string) uint64 { return prng.Derive(goldenFabricSeed, "resilience/"+c) }
	return []ResilienceCase{
		{"degradation", func(disable bool) (*bus.Bus, error) {
			return resilienceBus(resilienceShape{
				cfg:     bus.Config{MaxBurst: 16, RetryLimit: 8, RetryBackoff: 2, StarvationThreshold: 1000},
				load:    0.72,
				words:   16,
				arbiter: "lottery",
				faults:  fault.Config{Seed: tag("degradation/fault"), SlaveError: 0.02, WordError: 0.01},
				seed:    tag("degradation"),
			}, disable)
		}},
		{"degradation-priority", func(disable bool) (*bus.Bus, error) {
			return resilienceBus(resilienceShape{
				cfg:        bus.Config{MaxBurst: 16, RetryLimit: 8, RetryBackoff: 2, StarvationThreshold: 300},
				load:       0.2,
				words:      16,
				waitStates: 1,
				arbiter:    "priority",
				faults:     fault.Config{Seed: tag("degradation-priority/fault"), SlaveError: 0.01, WordError: 0.02},
				seed:       tag("degradation-priority"),
			}, disable)
		}},
		{"split-hang", func(disable bool) (*bus.Bus, error) {
			return resilienceBus(resilienceShape{
				cfg:          bus.Config{MaxBurst: 16, RetryLimit: 4, RetryBackoff: 3, SplitTimeout: 40},
				load:         0.1,
				words:        8,
				splitLatency: 12,
				arbiter:      "round-robin",
				faults:       fault.Config{Seed: tag("split-hang/fault"), SplitHang: 0.1, SlaveError: 0.005},
				seed:         tag("split-hang"),
			}, disable)
		}},
		{"babble", func(disable bool) (*bus.Bus, error) {
			return resilienceBus(resilienceShape{
				cfg:     bus.Config{MaxBurst: 16},
				load:    0.1,
				words:   16,
				arbiter: "lottery",
				faults: fault.Config{Seed: tag("babble/fault"), Babblers: []fault.Babbler{
					{Master: 0, Start: 1500, Stop: 3000, Load: 0.5, Words: 8},
				}},
				seed: tag("babble"),
			}, disable)
		}},
	}
}

// resilienceShape parameterizes resilienceBus.
type resilienceShape struct {
	cfg          bus.Config
	load         float64 // per-master offered load, words/cycle
	words        int     // message length
	waitStates   int     // memory wait states
	splitLatency int     // >0 adds a split slave that odd masters address
	arbiter      string  // "lottery" (static, 1:2:3:4), "priority" or "round-robin"
	faults       fault.Config
	seed         uint64
}

// resilienceBus builds four Bernoulli masters with tickets 1..4 over a
// memory (and, with a split latency, a split slave that odd masters
// address), attaches the arbiter and arms the fault model.
func resilienceBus(s resilienceShape, disable bool) (*bus.Bus, error) {
	b := bus.New(s.cfg)
	b.DisableFastForward = disable
	b.AddSlave("mem", bus.SlaveOpts{WaitStates: s.waitStates})
	if s.splitLatency > 0 {
		b.AddSlave("split-io", bus.SlaveOpts{SplitLatency: s.splitLatency})
	}
	for i := 0; i < MatrixMasters; i++ {
		slave := 0
		if s.splitLatency > 0 {
			slave = i % 2
		}
		gen, err := traffic.NewBernoulli(s.load, traffic.Fixed(s.words), slave,
			prng.Derive(s.seed, fmt.Sprintf("gen/%d", i)))
		if err != nil {
			return nil, err
		}
		b.AddMaster(fmt.Sprintf("m%d", i), gen, bus.MasterOpts{Tickets: uint64(i + 1)})
	}
	weights := []uint64{1, 2, 3, 4}
	var err error
	switch s.arbiter {
	case "lottery":
		err = goldenLottery(b, weights, fmt.Sprintf("resilience/%#x/arb", s.seed))
	case "round-robin":
		var rr *arb.RoundRobin
		rr, err = arb.NewRoundRobin(MatrixMasters)
		b.SetArbiter(rr)
	default:
		var p *arb.Priority
		p, err = arb.NewPriority(weights)
		b.SetArbiter(p)
	}
	if err != nil {
		return nil, err
	}
	inj, err := fault.New(s.faults, b.NumMasters(), b.NumSlaves())
	if err != nil {
		return nil, err
	}
	b.SetFaultModel(inj)
	return b, nil
}
