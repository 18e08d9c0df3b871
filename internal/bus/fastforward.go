// Fast-forward engine: event-driven execution of the cycle-accurate bus
// model, and the repository's only event-driven kernel. The naive loop
// in bus.go executes every simulated cycle even when nothing
// decision-relevant can happen — idle gaps waiting for the next traffic
// arrival, split-transaction latency, slave wait states, and the
// interior of uninterrupted bursts. This file leaps over those
// provably-inert stretches in O(1) per event while reproducing the naive
// loop's observable state bit for bit:
//
//   - every cycle on which an arbiter could be consulted (bus idle with a
//     non-empty request map) is still executed individually, so arbiter
//     PRNG streams and internal state (round-robin pointers, TDMA wheel
//     reclamation, WRR deficits) advance identically;
//   - every traffic arrival is enqueued at its exact cycle, so queue
//     occupancy, drops and message arrival timestamps are identical.
//     Each master's next arrival is cached, and Tick runs only on the
//     masters that are due: off its arrival cycles a Scheduler's Tick is
//     a documented no-op, and a Saturator emits only while its queue is
//     below its depth, which can only happen after one of its own pops —
//     so even a saturated bus is event-predictable;
//   - batched word transfers update the stats.Collector with the same
//     totals, and message start/completion events fire at the same cycles
//     with the same arguments, so latency sums and histograms are
//     identical (including the order-sensitive floating-point Welford
//     accumulators).
//
// Eligibility (checked per Run call by fastForwardable): no OnCycle /
// OnOwner / OnMessageComplete hook, no active Preemptor, no armed fault
// model, watchdog or starvation detector, and every attached generator
// implements Scheduler or Saturator. Anything else falls back to the
// naive loop — correctness never depends on the fast path.
package bus

import (
	"math"

	"lotterybus/internal/stats"
)

// Scheduler mirrors traffic.Scheduler (as Generator mirrors the Tick
// contract): an optional generator extension that predicts arrival
// cycles, letting the bus skip cycles on which no message can arrive.
// NextArrival(cycle) returns the earliest cycle >= cycle at which the
// generator's Tick may emit, or math.MaxInt64 for "never"; SkipTo(cycle)
// notifies the generator that the intermediate cycles were skipped.
type Scheduler interface {
	NextArrival(cycle int64) int64
	SkipTo(cycle int64)
}

// Saturator is the optional generator extension of traffic.Saturating:
// a generator that keeps its master's queue topped up to Depth()
// messages. Its Tick must emit exactly Depth()-queued messages when
// queued < Depth() and nothing otherwise, drawing no randomness. The
// queue only falls below the depth after one of its own pops (or while
// a queue cap smaller than the depth drops the top-up), so the bus knows
// every cycle on which such a generator can emit.
type Saturator interface {
	Depth() int
}

// never is the no-arrival sentinel (matches traffic.Never).
const never = int64(math.MaxInt64)

// fastForwardable reports whether this Run may use the fast-forward
// engine: nothing observes individual cycles and every generator can
// predict its arrivals.
func (b *Bus) fastForwardable() bool {
	if b.OnCycle != nil || b.OnOwner != nil || b.OnMessageComplete != nil {
		return false
	}
	if b.cfg.Preemption {
		if _, ok := b.arb.(Preemptor); ok {
			return false
		}
	}
	// An armed fault model, the watchdog and the starvation detector all
	// observe (or perturb) individual cycles; disarmed/absent they leave
	// the fast path untouched.
	if b.fault != nil && b.fault.Armed() {
		return false
	}
	if b.cfg.SplitTimeout > 0 || b.cfg.StarvationThreshold > 0 {
		return false
	}
	for _, m := range b.masters {
		switch m.gen.(type) {
		case nil, Scheduler, Saturator:
		default:
			return false
		}
	}
	return true
}

// primeArrivals fills the arrival cache at the start of a fast Run. The
// naive loop may have Ticked (or Inject filled a queue) since the last
// fast Run, so nothing cached then is trusted now.
func (b *Bus) primeArrivals() {
	if len(b.nextArr) != len(b.masters) {
		b.scheds = make([]Scheduler, len(b.masters))
		b.depths = make([]int, len(b.masters))
		b.nextArr = make([]int64, len(b.masters))
	}
	b.arrMin = never
	for i, m := range b.masters {
		b.scheds[i], b.depths[i] = nil, 0
		switch g := m.gen.(type) {
		case Scheduler:
			b.scheds[i] = g
		case Saturator:
			b.depths[i] = g.Depth()
		}
		b.nextArr[i] = b.arrivalFrom(i, b.cycle)
		b.arrMin = min(b.arrMin, b.nextArr[i])
	}
}

// arrivalFrom returns the earliest cycle >= cycle at which master i's
// Tick may emit, given its current queue.
func (b *Bus) arrivalFrom(i int, cycle int64) int64 {
	if s := b.scheds[i]; s != nil {
		return s.NextArrival(cycle)
	}
	if d := b.depths[i]; d > 0 && b.masters[i].queue.len() < d {
		return cycle
	}
	return never
}

// scanArrivals is the naive loop's phase 1 restricted to the masters
// due at cycle, in master order; it refreshes their cached arrivals.
func (b *Bus) scanArrivals(cycle int64) {
	next := never
	for i, m := range b.masters {
		if b.nextArr[i] <= cycle {
			m.gen.Tick(cycle, m.queue.len(), m.emit)
			b.nextArr[i] = b.arrivalFrom(i, cycle+1)
		}
		next = min(next, b.nextArr[i])
	}
	b.arrMin = next
}

// refill marks master i's Saturator due at the current cycle when a pop
// has left its queue below depth.
func (b *Bus) refill(i int) {
	if d := b.depths[i]; d > 0 && b.masters[i].queue.len() < d {
		b.nextArr[i] = b.cycle
		b.arrMin = min(b.arrMin, b.cycle)
	}
}

// nextSplitReady returns the earliest cycle at which an outstanding
// split transaction's response becomes ready (asserting its master's
// request line), or never.
func (b *Bus) nextSplitReady() int64 {
	next := never
	for _, m := range b.masters {
		if m.outstanding != nil && m.respReady < next {
			next = m.respReady
		}
	}
	return next
}

// runFast executes n bus cycles with event-driven fast-forwarding. The
// per-cycle portion below is the naive loop body minus the hook and
// pre-emption branches (both excluded by fastForwardable); after each
// executed cycle it leaps to the next event.
func (b *Bus) runFast(n int64, col *stats.Collector) error {
	b.primeArrivals()
	wide := len(b.masters) > 64
	end := b.cycle + n
	for b.cycle < end {
		cycle := b.cycle

		// Phase 1: traffic arrival, for the masters that are due.
		if b.arrMin <= cycle {
			b.scanArrivals(cycle)
		}

		// Phase 2: arbitration when idle.
		if b.cur == nil {
			if !wide {
				if w := b.requestMask64(); w != 0 {
					// Narrow buses never set mask words 1..3, so storing
					// word 0 alone keeps the cache current without
					// copying the whole bitset.
					b.mask[0], b.maskFor = w, cycle
					if g, ok := b.arb.Arbitrate(cycle, &b.reqView); ok {
						if err := b.startBurst(g, col); err != nil {
							return err
						}
					}
				}
			} else if mask := b.requestMaskWide(); mask.Any() {
				b.mask, b.maskFor = mask, cycle
				if g, ok := b.arb.Arbitrate(cycle, &b.reqView); ok {
					if err := b.startBurst(g, col); err != nil {
						return err
					}
				}
			}
		}

		// Phase 3: word transfer. A pop ends the burst, so only a burst
		// that ended can have let its master's Saturator emit again.
		owner := -1
		if b.cur != nil {
			if b.cur.waitLeft > 0 {
				b.cur.waitLeft--
			} else {
				owner = b.transferWord(col)
			}
		}
		col.AdvanceCycles(1)
		b.cycle++
		if owner >= 0 && b.cur == nil {
			b.refill(owner)
		}

		// Fast-forward to the next event.
		if b.cur != nil {
			// Mid-burst: only a traffic arrival needs an executed cycle
			// before the burst's own bookkeeping; batch up to it.
			if limit := min(end, b.arrMin); limit > b.cycle {
				from, owner := b.cycle, b.cur.master
				b.batchBurst(limit, col)
				b.ffCycles += b.cycle - from
				if b.cur == nil {
					b.refill(owner)
				}
			}
		} else if !wide && b.requestMask64() == 0 || wide && b.requestMaskWide().None() {
			// Dead gap: bus idle, no requests. Nothing can happen until
			// the next arrival or a split response becomes ready.
			target := min(end, min(b.arrMin, b.nextSplitReady()))
			if target > b.cycle {
				col.AdvanceCycles(target - b.cycle)
				b.ffCycles += target - b.cycle
				for _, s := range b.scheds {
					if s != nil {
						s.SkipTo(target)
					}
				}
				b.cycle = target
			}
		}
	}
	return nil
}

// batchBurst advances the in-progress burst to limit (exclusive) in one
// step, replaying exactly what the naive loop's phase 3 would do cycle
// by cycle. Preconditions: b.cur != nil, b.cycle < limit, and no traffic
// arrives in [b.cycle, limit).
func (b *Bus) batchBurst(limit int64, col *stats.Collector) {
	cur := b.cur
	m := b.masters[cur.master]
	var msg *message
	if cur.fromOutstanding {
		msg = m.outstanding
	} else {
		msg = m.queue.front()
	}
	start := b.cycle

	// The window may be pure stall (arbitration latency / wait states).
	if int64(cur.waitLeft) >= limit-start {
		cur.waitLeft -= int(limit - start)
		col.AdvanceCycles(limit - start)
		b.cycle = limit
		return
	}
	first := start + int64(cur.waitLeft) // cycle the next beat moves
	cur.waitLeft = 0

	if !msg.started {
		msg.started = true
		col.MessageStarted(cur.master, msg.arrival, first)
	}

	// Split request phase: a single address beat at first, then the bus
	// is released while the slave processes.
	if cur.control {
		col.ControlCycle(cur.master)
		m.outBuf = *msg
		m.outstanding = &m.outBuf
		m.respReady = first + int64(b.slaves[msg.slave].splitLatency)
		m.queue.pop()
		b.cur = nil
		col.AdvanceCycles(first + 1 - start)
		b.cycle = first + 1
		return
	}

	// Data beats move every (1 + waitStates) cycles starting at first.
	waitStates := 0
	if len(b.slaves) > 0 {
		waitStates = b.slaves[msg.slave].waitStates
	}
	stride := int64(waitStates) + 1
	left := int64(cur.words - cur.done)
	if int64(msg.remaining) < left {
		left = int64(msg.remaining)
	}
	k := (limit - first + stride - 1) / stride // beats before limit
	if k > left {
		k = left
	}
	// k >= 1: first < limit and left >= 1 for any live burst.
	col.WordsTransferred(cur.master, k)
	if len(b.slaves) > 0 {
		b.slaves[msg.slave].words += k
	}
	msg.remaining -= int(k)
	cur.done += int(k)
	last := first + (k-1)*stride // cycle of the batch's final beat

	if msg.remaining == 0 {
		col.MessageCompleted(cur.master, msg.words, msg.arrival, last)
		if cur.fromOutstanding {
			m.outstanding = nil
		} else {
			m.queue.pop()
		}
		b.cur = nil
		col.AdvanceCycles(last + 1 - start)
		b.cycle = last + 1
		return
	}
	if cur.done == cur.words {
		// Burst budget exhausted mid-message: the master re-contends.
		b.cur = nil
		col.AdvanceCycles(last + 1 - start)
		b.cycle = last + 1
		return
	}
	// Burst continues beyond limit. The naive loop would have set
	// waitLeft to the slave's wait states after the beat at last and
	// decremented it once per cycle since; limit <= last + stride
	// guarantees the remainder is non-negative.
	cur.waitLeft = waitStates - int(limit-last-1)
	col.AdvanceCycles(limit - start)
	b.cycle = limit
}
