package analytic

import (
	"fmt"

	"lotterybus/internal/core"
)

// Regime classification: deciding, from a sweep point's configuration
// alone, whether its long-run bandwidth split is already known in closed
// form. The closed forms are checks on the simulator, not a substitute
// for it: the saturation oracle (check.SaturationOracle) and the regimes
// experiment's A/B test hold simulated shares to them. The classifier is
// deliberately conservative — it admits exactly the configuration
// classes the oracle continuously re-proves, with the oracle's
// tolerances, and answers Mixed for everything else.

// Regime is the classification of one sweep point.
type Regime int

const (
	// Mixed means the point is not provably idle or saturated; no
	// closed form covers it.
	Mixed Regime = iota
	// Idle means every master provably offers zero traffic: shares and
	// utilization are exactly zero, no message ever moves.
	Idle
	// Saturated means every master is provably backlogged forever and
	// the arbiter's saturated bandwidth split has an oracle-proven
	// closed form.
	Saturated
)

// String names the regime.
func (r Regime) String() string {
	switch r {
	case Idle:
		return "idle"
	case Saturated:
		return "saturated"
	default:
		return "mixed"
	}
}

// Arbiter kinds the classifier understands (the lotterysim config
// vocabulary). Anything else classifies as Mixed.
const (
	KindLottery        = "lottery"
	KindDynamicLottery = "dynamic-lottery"
	KindPriority       = "priority"
	KindRoundRobin     = "round-robin"
	KindTDMA           = "tdma"
	KindTDMA1          = "tdma1"
)

// PointMaster describes one master of a sweep point as far as regime
// classification needs: what its generator provably does, not how it is
// seeded (classification must not depend on the random stream).
type PointMaster struct {
	// Saturating marks a generator that keeps its queue backlogged
	// forever (traffic.Saturating).
	Saturating bool
	// OfferedLoad is the long-run offered load in words/cycle, valid
	// only when LoadKnown. The classifier only ever compares it to zero.
	OfferedLoad float64
	// LoadKnown reports whether OfferedLoad is exact for this generator
	// (false for traffic classes or custom generators).
	LoadKnown bool
	// Words is the fixed message size in words.
	Words int
	// Slave is the index of the targeted slave.
	Slave int
}

// PointSlave describes one slave of a sweep point.
type PointSlave struct {
	WaitStates int
	Split      bool
}

// Point is the configuration of one sweep point, reduced to what regime
// classification consumes.
type Point struct {
	// Arbiter is the canonical kind (Kind* constants).
	Arbiter string
	// Weights are the per-master QoS weights (tickets, priorities or
	// TDMA slot weights).
	Weights []uint64
	// MaxBurst is the per-grant word cap; ArbLatency the idle cycles
	// charged per arbitration.
	MaxBurst   int
	ArbLatency int
	Masters    []PointMaster
	Slaves     []PointSlave
}

// Classify returns the point's regime.
//
// Idle requires every master's offered load to be exactly and provably
// zero. Saturated requires every master to be provably backlogged
// (Saturating), pipelined arbitration (ArbLatency 0), zero-wait
// non-split targeted slaves, equal effective burst min(Words, MaxBurst)
// across masters, and an arbiter whose saturated split the oracle
// proves:
//
//   - lottery / dynamic-lottery: ticket-fraction shares (tolerance 0.05);
//   - round-robin: equal shares (tolerance 0.02);
//   - tdma / tdma1: slot-fraction shares — under saturation every slot
//     is claimed by its backlogged owner, so one- and two-level wheels
//     coincide (tolerance 0.02);
//   - priority: winner-takes-all to the unique highest priority
//     (tolerance 0.01); duplicate maxima classify Mixed.
func Classify(p Point) Regime {
	if len(p.Masters) == 0 {
		return Mixed
	}
	idle := true
	for _, m := range p.Masters {
		if m.Saturating || !m.LoadKnown || m.OfferedLoad != 0 {
			idle = false
			break
		}
	}
	if idle {
		return Idle
	}
	if _, _, err := SaturatedShares(p); err == nil {
		return Saturated
	}
	return Mixed
}

// SaturatedShares returns the oracle-proven per-master bandwidth shares
// of a saturated point together with the share tolerance the oracle
// enforces, or an error naming the first condition the point fails. The
// shares are fractions of bus data cycles; with the zero-wait slaves the
// classification requires, utilization is 1. Latency has no closed form
// here: it depends on how many messages each master keeps queued.
func SaturatedShares(p Point) (shares []float64, tol float64, err error) {
	if len(p.Masters) == 0 || len(p.Weights) != len(p.Masters) {
		return nil, 0, fmt.Errorf("analytic: point needs matching masters and weights")
	}
	if p.ArbLatency != 0 {
		return nil, 0, fmt.Errorf("analytic: arbitration latency %d is not modeled saturated", p.ArbLatency)
	}
	if p.MaxBurst <= 0 {
		return nil, 0, fmt.Errorf("analytic: non-positive MaxBurst")
	}
	burst := -1
	for i, m := range p.Masters {
		if !m.Saturating {
			return nil, 0, fmt.Errorf("analytic: master %d is not provably backlogged", i)
		}
		if m.Words <= 0 {
			return nil, 0, fmt.Errorf("analytic: master %d has no fixed message size", i)
		}
		if m.Slave < 0 || m.Slave >= len(p.Slaves) {
			return nil, 0, fmt.Errorf("analytic: master %d targets unknown slave %d", i, m.Slave)
		}
		if s := p.Slaves[m.Slave]; s.WaitStates != 0 || s.Split {
			return nil, 0, fmt.Errorf("analytic: targeted slave %d has wait states or split transactions", m.Slave)
		}
		eff := m.Words
		if eff > p.MaxBurst {
			eff = p.MaxBurst
		}
		if burst == -1 {
			burst = eff
		} else if eff != burst {
			return nil, 0, fmt.Errorf("analytic: unequal effective bursts (%d vs %d words)", burst, eff)
		}
	}

	n := len(p.Masters)
	shares = make([]float64, n)
	switch p.Arbiter {
	case KindLottery, KindDynamicLottery:
		// The dynamic manager samples live holdings each draw; with
		// constant weights it converges to the static fractions.
		for i := range shares {
			shares[i] = LotteryShare(p.Weights, i)
		}
		return shares, 0.05, nil
	case KindRoundRobin:
		for i := range shares {
			shares[i] = 1 / float64(n)
		}
		return shares, 0.02, nil
	case KindTDMA, KindTDMA1:
		slots := make([]int, n)
		for i, w := range p.Weights {
			slots[i] = int(w)
		}
		for i := range shares {
			s, err := TDMAServiceShareSet(slots, i, core.FullBitset(n))
			if err != nil {
				return nil, 0, err
			}
			shares[i] = s
		}
		return shares, 0.02, nil
	case KindPriority:
		best, dup := 0, false
		for i := 1; i < n; i++ {
			switch {
			case p.Weights[i] > p.Weights[best]:
				best, dup = i, false
			case p.Weights[i] == p.Weights[best]:
				dup = true
			}
		}
		if dup {
			return nil, 0, fmt.Errorf("analytic: duplicate top priority; winner not provable")
		}
		shares[best] = 1
		return shares, 0.01, nil
	default:
		return nil, 0, fmt.Errorf("analytic: arbiter %q has no proven saturated closed form", p.Arbiter)
	}
}

// OnOffOfferedLoad returns the long-run offered load (words/cycle) of an
// ON/OFF modulated source that offers loadOn words/cycle during ON
// periods of mean dwell meanOn cycles, separated by OFF periods of mean
// dwell meanOff cycles: loadOn scaled by the ON duty cycle.
func OnOffOfferedLoad(meanOn, meanOff, loadOn float64) float64 {
	if meanOn <= 0 {
		return 0
	}
	return loadOn * meanOn / (meanOn + meanOff)
}

// OnOffPeakToMean returns the burstiness (peak-to-mean load ratio) of an
// ON/OFF source: (meanOn+meanOff)/meanOn. A Bernoulli source has ratio 1.
func OnOffPeakToMean(meanOn, meanOff float64) float64 {
	if meanOn <= 0 {
		return 0
	}
	return (meanOn + meanOff) / meanOn
}

// OnOffLoneWait approximates the mean queueing delay (cycles, excluding
// service) of a lone master with ON/OFF traffic on an otherwise idle
// bus. During ON dwells the queue behaves as Geo/D/1 at the in-burst
// utilization; arrivals only occur during ON, so the mean wait over all
// arrivals is the ON-phase Geo/D/1 wait. This is a regime-switching
// approximation, not an exact result: it ignores backlog carried across
// the ON/OFF boundary, so it reads low for dwells short relative to the
// service time. The package tests validate it against simulation within
// a documented factor of two; use it for sizing, not for verdicts.
func OnOffLoneWait(meanOn, meanOff, loadOn float64, msgWords int) (float64, error) {
	if msgWords <= 0 {
		return 0, fmt.Errorf("analytic: non-positive message size")
	}
	rhoOn := loadOn // one word per cycle of service capacity
	if rhoOn >= 1 {
		return 0, fmt.Errorf("analytic: in-burst load %v saturates the bus; no stationary wait", rhoOn)
	}
	return GeoD1Wait(rhoOn, float64(msgWords))
}
