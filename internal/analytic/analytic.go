// Package analytic provides closed-form performance models for the
// arbitration schemes in this repository — the back-of-envelope
// calculations a communication-architecture designer makes before
// simulating. The package's tests validate every model against the
// cycle-accurate simulator, and the model-validation experiment
// (expt.RunModelValidation) reports model-vs-simulation side by side.
package analytic

import (
	"fmt"
	"math"

	"lotterybus/internal/core"
)

// LotteryShare returns the long-run bandwidth fraction master i receives
// from a lottery when every listed master is continuously backlogged:
// t_i / Σ t_j (paper §4.2).
func LotteryShare(tickets []uint64, i int) float64 {
	var total uint64
	for _, t := range tickets {
		total += t
	}
	if total == 0 || i < 0 || i >= len(tickets) {
		return 0
	}
	return float64(tickets[i]) / float64(total)
}

// ExpectedLotteriesToWin returns the mean number of lotteries until a
// master holding t of total live tickets first wins: 1/p with p = t/T
// (the win process is geometric and memoryless).
func ExpectedLotteriesToWin(t, total uint64) float64 {
	if t == 0 || total == 0 {
		return math.Inf(1)
	}
	if t >= total {
		return 1
	}
	return float64(total) / float64(t)
}

// LotteryAccessWait estimates the mean cycles between a request arriving
// at an otherwise idle master and its first word moving, when the other
// ticket holders keep the bus continuously busy with bursts of
// meanBurst words: the residual life of the in-progress burst plus one
// full burst per lost lottery.
//
//	wait ≈ meanBurst/2 + (1/p − 1)·meanBurst,  p = t/total.
func LotteryAccessWait(t, total uint64, meanBurst float64) float64 {
	if meanBurst <= 0 {
		return 0
	}
	p := 0.0
	if total > 0 {
		p = float64(t) / float64(total)
	}
	if p <= 0 {
		return math.Inf(1)
	}
	if p > 1 {
		p = 1
	}
	return meanBurst/2 + (1/p-1)*meanBurst
}

// TDMAAlignmentWait returns the mean cycles a request arriving at a
// uniformly random wheel position waits for the start of its owner's
// contiguous reservation block, under single-level TDMA (idle slots are
// wasted, paper Fig. 5). block is the owner's contiguous slot count and
// wheel the total wheel length. Arrivals inside the block start
// immediately; an arrival d slots before the block start waits d:
//
//	wait = Σ_{d=1..wheel−block} d / wheel = (L−b)(L−b+1)/(2L).
func TDMAAlignmentWait(block, wheel int) (float64, error) {
	if wheel <= 0 || block <= 0 || block > wheel {
		return 0, fmt.Errorf("analytic: invalid wheel %d/block %d", wheel, block)
	}
	gap := float64(wheel - block)
	return gap * (gap + 1) / (2 * float64(wheel)), nil
}

// TDMAServiceShare returns the fraction of bus words a master drains
// under two-level TDMA when the masters in pendingMask are all
// continuously backlogged: its own slots plus an equal (round-robin)
// share of every idle master's slots. A uint64 mask only addresses
// masters 0..63; wider wheels go through TDMAServiceShareSet.
func TDMAServiceShare(slots []int, i int, pendingMask uint64) (float64, error) {
	return TDMAServiceShareSet(slots, i, core.Mask64Bitset(pendingMask))
}

// TDMAServiceShareSet is TDMAServiceShare over a wide request map, for
// wheels beyond one machine word. The old 1<<n-1 full-mask idiom could
// never assert bit 64 and above — build the saturated map with
// core.FullBitset(len(slots)) instead.
func TDMAServiceShareSet(slots []int, i int, pending core.Bitset) (float64, error) {
	if i < 0 || i >= len(slots) {
		return 0, fmt.Errorf("analytic: master %d out of range", i)
	}
	if len(slots) > core.MaxMasters {
		return 0, fmt.Errorf("analytic: %d masters exceeds core.MaxMasters (%d)", len(slots), core.MaxMasters)
	}
	if !pending.Test(i) {
		return 0, nil
	}
	total := 0
	idle := 0
	contenders := 0
	for j, s := range slots {
		if s < 0 {
			return 0, fmt.Errorf("analytic: negative slot count")
		}
		total += s
		if pending.Test(j) {
			contenders++
		} else {
			idle += s
		}
	}
	if total == 0 || contenders == 0 {
		return 0, fmt.Errorf("analytic: empty wheel or no contenders")
	}
	own := float64(slots[i]) / float64(total)
	reclaim := float64(idle) / float64(total) / float64(contenders)
	return own + reclaim, nil
}

// GeoD1Wait returns the mean queueing delay (cycles, excluding service)
// of a discrete-time Geo/D/1 queue — Bernoulli arrivals (at most one
// message per cycle) and deterministic service of service cycles, the
// exact regime of a lone master on this simulator:
//
//	W = ρ·(S−1) / (2(1−ρ)).
//
// Note the S−1: a one-cycle message served the cycle it arrives can
// never queue behind an empty system, unlike in continuous-time M/D/1.
func GeoD1Wait(rho, service float64) (float64, error) {
	if rho < 0 || rho >= 1 {
		return 0, fmt.Errorf("analytic: utilization %v outside [0, 1)", rho)
	}
	if service <= 0 {
		return 0, fmt.Errorf("analytic: non-positive service time")
	}
	return rho * (service - 1) / (2 * (1 - rho)), nil
}
