package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/core"
	"lotterybus/internal/prng"
	"lotterybus/internal/traffic"
)

func TestLotteryShareBasics(t *testing.T) {
	tickets := []uint64{1, 2, 3, 4}
	if s := LotteryShare(tickets, 3); math.Abs(s-0.4) > 1e-12 {
		t.Fatalf("share %v", s)
	}
	if LotteryShare(tickets, -1) != 0 || LotteryShare(nil, 0) != 0 {
		t.Fatal("edge cases")
	}
	// Shares sum to one.
	f := func(raw [5]uint8) bool {
		tk := make([]uint64, 5)
		for i, r := range raw {
			tk[i] = uint64(r%100) + 1
		}
		sum := 0.0
		for i := range tk {
			sum += LotteryShare(tk, i)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedLotteriesToWin(t *testing.T) {
	if v := ExpectedLotteriesToWin(1, 10); v != 10 {
		t.Fatalf("1/10 -> %v", v)
	}
	if v := ExpectedLotteriesToWin(10, 10); v != 1 {
		t.Fatalf("certain -> %v", v)
	}
	if !math.IsInf(ExpectedLotteriesToWin(0, 10), 1) {
		t.Fatal("zero tickets must never win")
	}
}

func TestExpectedLotteriesMatchesManager(t *testing.T) {
	// Monte-Carlo: mean draws until the 2-of-10 holder wins.
	mgr, err := core.NewStaticLottery(core.StaticConfig{
		Tickets: []uint64{2, 8},
		Source:  prng.NewXorShift64Star(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	const trials = 20000
	for k := 0; k < trials; k++ {
		n := 1
		for mgr.Draw(0b11) != 0 {
			n++
		}
		total += float64(n)
	}
	got := total / trials
	want := ExpectedLotteriesToWin(2, 10)
	if math.Abs(got-want) > 0.1*want {
		t.Fatalf("measured %v draws, model %v", got, want)
	}
}

func TestTDMAAlignmentWaitFormula(t *testing.T) {
	// Degenerate cases.
	if w, err := TDMAAlignmentWait(10, 10); err != nil || w != 0 {
		t.Fatalf("full wheel: %v %v", w, err)
	}
	if _, err := TDMAAlignmentWait(0, 10); err == nil {
		t.Fatal("zero block accepted")
	}
	if _, err := TDMAAlignmentWait(11, 10); err == nil {
		t.Fatal("block > wheel accepted")
	}
	// Hand value: block 6 of wheel 18 -> 12*13/36 = 4.333.
	w, err := TDMAAlignmentWait(6, 18)
	if err != nil || math.Abs(w-13.0/3) > 1e-12 {
		t.Fatalf("wait %v, want 4.333", w)
	}
}

func TestTDMAAlignmentWaitMatchesSimulation(t *testing.T) {
	// A lone sparse master owning a 8-slot block of a 32-slot
	// single-level wheel: measured first-word wait must match the
	// uniform-arrival formula.
	b := bus.New(bus.Config{MaxBurst: 16})
	gen, err := traffic.NewBernoulli(0.01, traffic.Fixed(1), 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	b.AddMaster("m0", gen, bus.MasterOpts{})
	b.AddMaster("pad", nil, bus.MasterOpts{}) // owns the rest of the wheel
	b.AddSlave("mem", bus.SlaveOpts{})
	td, err := arb.NewTDMA(arb.ContiguousWheel([]int{8, 24}), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	b.SetArbiter(td)
	if err := b.Run(400000); err != nil {
		t.Fatal(err)
	}
	got := b.Collector().AvgWait(0)
	want, _ := TDMAAlignmentWait(8, 32)
	if math.Abs(got-want) > 0.08*want+0.2 {
		t.Fatalf("simulated wait %v, model %v", got, want)
	}
}

func TestTDMAServiceShare(t *testing.T) {
	slots := []int{1, 2, 3, 4}
	// All pending: own share only.
	s, err := TDMAServiceShare(slots, 3, 0b1111)
	if err != nil || math.Abs(s-0.4) > 1e-12 {
		t.Fatalf("share %v err %v", s, err)
	}
	// Masters 0 and 3 pending: they split masters 1+2's 5 idle slots.
	s, _ = TDMAServiceShare(slots, 3, 0b1001)
	if math.Abs(s-(0.4+0.25)) > 1e-12 {
		t.Fatalf("share with reclaim %v", s)
	}
	// Idle master gets nothing.
	if s, _ := TDMAServiceShare(slots, 1, 0b1001); s != 0 {
		t.Fatalf("idle master share %v", s)
	}
	if _, err := TDMAServiceShare(slots, 9, 1); err == nil {
		t.Fatal("bad index accepted")
	}
	if _, err := TDMAServiceShare([]int{0, 0}, 0, 0b01); err == nil {
		t.Fatal("empty wheel accepted")
	}
}

func TestTDMAServiceShareMatchesSimulation(t *testing.T) {
	// Masters 0 and 3 saturating, 1 and 2 silent, two-level wheel
	// 1:2:3:4 — shares must match own + reclaimed/2.
	b := bus.New(bus.Config{MaxBurst: 16})
	for i := 0; i < 4; i++ {
		var gen bus.Generator
		if i == 0 || i == 3 {
			gen = &saturating{words: 8}
		}
		b.AddMaster("m", gen, bus.MasterOpts{})
	}
	b.AddSlave("mem", bus.SlaveOpts{})
	slots := []int{1, 2, 3, 4}
	td, _ := arb.NewTDMA(arb.ContiguousWheel(slots), 4, true)
	b.SetArbiter(td)
	if err := b.Run(100000); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 3} {
		want, _ := TDMAServiceShare(slots, i, 0b1001)
		got := b.Collector().BandwidthFraction(i)
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("master %d share %v, model %v", i, got, want)
		}
	}
}

type saturating struct{ words int }

func (s *saturating) Tick(_ int64, queued int, emit func(words, slave int)) {
	for ; queued < 2; queued++ {
		emit(s.words, 0)
	}
}

func TestGeoD1WaitFormulaAndSimulation(t *testing.T) {
	if _, err := GeoD1Wait(1.0, 1); err == nil {
		t.Fatal("rho=1 accepted")
	}
	if _, err := GeoD1Wait(0.5, 0); err == nil {
		t.Fatal("zero service accepted")
	}
	// One-cycle service in discrete time can never queue.
	w, err := GeoD1Wait(0.5, 1)
	if err != nil || w != 0 {
		t.Fatalf("W(0.5,1) = %v", w)
	}

	// Simulation: a lone master with Bernoulli 4-word messages at rho
	// 0.6 on a dedicated bus; queueing delay must match Geo/D/1.
	b := bus.New(bus.Config{MaxBurst: 16})
	gen, err := traffic.NewBernoulli(0.6, traffic.Fixed(4), 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	b.AddMaster("m0", gen, bus.MasterOpts{})
	b.AddSlave("mem", bus.SlaveOpts{})
	p, _ := arb.NewPriority([]uint64{1})
	b.SetArbiter(p)
	if err := b.Run(800000); err != nil {
		t.Fatal(err)
	}
	got := b.Collector().AvgWait(0)
	want, _ := GeoD1Wait(0.6, 4)
	if math.Abs(got-want) > 0.15*want+0.05 {
		t.Fatalf("simulated wait %v, Geo/D/1 %v", got, want)
	}
}

func TestLotteryAccessWaitMatchesSimulation(t *testing.T) {
	// Master 0: sparse 1-word requests with 2 of 10 tickets; master 1:
	// saturating 16-word bursts. Access wait ≈ residual + lost rounds.
	// The arrival rate must be far below 1/wait (~1/72) or the sparse
	// master's own FIFO queueing inflates the measured wait beyond the
	// pure access-delay model.
	b := bus.New(bus.Config{MaxBurst: 16})
	gen, err := traffic.NewBernoulli(0.001, traffic.Fixed(1), 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	b.AddMaster("sparse", gen, bus.MasterOpts{})
	b.AddMaster("heavy", &saturating{words: 16}, bus.MasterOpts{})
	b.AddSlave("mem", bus.SlaveOpts{})
	mgr, err := core.NewStaticLottery(core.StaticConfig{
		Tickets: []uint64{2, 8},
		Source:  prng.NewXorShift64Star(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	b.SetArbiter(arb.NewStaticLottery(mgr))
	if err := b.Run(2000000); err != nil {
		t.Fatal(err)
	}
	got := b.Collector().AvgWait(0)
	want := LotteryAccessWait(2, 10, 16)
	if math.Abs(got-want) > 0.15*want {
		t.Fatalf("simulated wait %v, model %v", got, want)
	}
}
