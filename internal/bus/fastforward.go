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
//     so even a saturated bus is event-predictable. An arrival during a
//     burst is Ticked inside the burst's batch: it touches queues only;
//   - batched word transfers update the stats.Collector with the same
//     totals, and message start/completion events fire at the same cycles
//     with the same arguments, so latency sums and histograms are
//     identical (including the order-sensitive floating-point Welford
//     accumulators).
//
// The resilience machinery rides along as events. A batched burst draws
// each data beat's slave-error and word-error faults (and a split
// request's hang) at the beat's exact cycle, in the naive order, and
// ends at the first faulted beat. Retry-backoff expiry, split-response
// readiness and watchdog deadlines are timers: once anything can set
// them, every leap stops at the next one. Between events the bus owner
// and the request lines hold still, so the starvation detector counts a
// whole stretch's starved cycles at once. Babble windows are known in
// advance (FaultModel.BabbleWindow): Run hands each window to the naive
// loop, and only the stretches between windows come here.
//
// Both engines read one request map, kept by the bus as its state
// changes rather than rebuilt master by master each cycle (see the
// queued and held fields of Bus). A queue decides its master's request
// line except while the master has a split outstanding, whose line
// follows the response's readiness cycle, or sits out a retry backoff:
// those masters are held, only they are re-evaluated when the map is
// read, and a master leaves the held set once neither condition holds.
// Arbitration, the starvation detector and the arbiter's Requests view
// all read that map, so their cost follows the masters that are live
// or held rather than the bus width; the watchdog and the timers that
// bound every leap look at the held masters alone.
//
// Eligibility (checked per Run call by fastForwardable): no OnCycle /
// OnOwner / OnMessageComplete hook, no active Preemptor, and every
// attached generator implements Scheduler or Saturator. Anything else
// falls back to the naive loop — correctness never depends on the fast
// path.
package bus

import (
	"math"

	"lotterybus/internal/stats"
)

// Scheduler mirrors traffic.Scheduler (as Generator mirrors the Tick
// contract): an optional generator extension that predicts arrival
// cycles, letting the bus skip cycles on which no message can arrive.
// NextArrival(cycle) returns the earliest cycle >= cycle at which the
// generator's Tick may emit, or math.MaxInt64 for "never". Skipped
// cycles need no notice: a leap never passes a master's cached next
// arrival, so no Tick it skips could have emitted.
type Scheduler interface {
	NextArrival(cycle int64) int64
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
// request line), or never. Only held masters can have one.
func (b *Bus) nextSplitReady() int64 {
	next := never
	b.eachHeld(func(_ int, m *Master) {
		if m.outstanding != nil && m.respReady < next {
			next = m.respReady
		}
	})
	return next
}

// nextTimer returns the earliest cycle a leap from b.cycle must stop at
// for a resilience timer: a retry backoff expiring after b.cycle (the
// master re-asserts its request), a split response becoming ready after
// b.cycle, or, with the watchdog armed, a split deadline from b.cycle on
// that passes before its response (the watchdog acts inside the cycle,
// so a deadline at b.cycle itself needs that cycle executed). Only held
// masters have timers.
func (b *Bus) nextTimer(splitTO int64) int64 {
	next := never
	b.eachHeld(func(_ int, m *Master) {
		if m.backoffUntil > b.cycle {
			next = min(next, m.backoffUntil)
		}
		if m.outstanding == nil {
			return
		}
		if m.respReady > b.cycle {
			next = min(next, m.respReady)
		}
		if d := m.splitIssued + splitTO; splitTO > 0 && d >= b.cycle && m.respReady > d {
			next = min(next, d)
		}
	})
	return next
}

// runFast executes the cycles up to end with event-driven
// fast-forwarding. The per-cycle portion below is the naive loop body
// minus the hook, pre-emption and babble branches (the first two are
// excluded by fastForwardable, babble windows by Run); after each
// executed cycle it leaps to the next event.
func (b *Bus) runFast(end int64, col *stats.Collector) error {
	b.primeArrivals()
	splitTO, starveThr := b.cfg.SplitTimeout, b.cfg.StarvationThreshold
	// Resilience timers bound every leap once anything can set them: an
	// armed model, the watchdog, the starvation detector (which sees
	// each request line move), or a backoff left by an earlier Run.
	timed := b.fm != nil || splitTO > 0 || starveThr > 0
	for _, m := range b.masters {
		timed = timed || m.backoffUntil > b.cycle
	}
	// A leap stops at end or, when timed, at the next resilience timer.
	limit := func() int64 {
		if timed {
			return min(end, b.nextTimer(splitTO))
		}
		return end
	}
	for b.cycle < end {
		cycle := b.cycle

		// Phase 1: traffic arrival, for the masters that are due.
		if b.arrMin <= cycle {
			b.scanArrivals(cycle)
		}
		if splitTO > 0 {
			b.watchdog(col, splitTO)
		}

		// Phase 2: arbitration when idle.
		if b.cur == nil {
			live, err := b.arbitrate(col)
			if err != nil {
				return err
			}
			// Dead gap: bus idle, no requests. Nothing can happen until
			// the next arrival, split response or timer, so the rest of
			// this cycle and the ones up to the event are skipped. The
			// starvation detector has nothing to count: nobody requests
			// now, so nobody was waiting at the last scanned cycle
			// either, since no request line drops between cycles.
			if !live {
				if target := min(limit(), b.arrMin, b.nextSplitReady()); target > cycle {
					col.AdvanceCycles(target - cycle)
					b.ffCycles += target - cycle - 1
					b.cycle = target
					continue
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
		if starveThr > 0 {
			b.starveSpan(col, starveThr, cycle+1, b.holder())
		}
		col.AdvanceCycles(1)
		b.cycle++
		if owner >= 0 && b.cur == nil {
			b.refill(owner)
		}

		// Mid-burst: batch the burst's beats up to its end or the leap's
		// limit. An arrival on the way is Ticked at its cycle and the
		// batch goes on: it only touches queues, never the burst (a pop
		// ends the burst, and arbitration waits for the bus).
		if b.cur != nil {
			if limit := limit(); limit > b.cycle {
				from, owner := b.cycle, b.cur.master
				for b.cur != nil && b.cycle < limit {
					if b.arrMin <= b.cycle {
						// Phase 1 of this cycle; its transfer follows.
						b.scanArrivals(b.cycle)
					}
					start := b.cycle
					next := b.burstBeats(min(limit, b.arrMin), col)
					if starveThr > 0 {
						b.starveStretch(col, starveThr, start, next, owner)
					}
					col.AdvanceCycles(next - start)
					b.cycle = next
				}
				b.ffCycles += b.cycle - from
				if b.cur == nil {
					b.refill(owner)
				}
			}
		}
	}
	return nil
}

// starveStretch advances the starvation detector over a batched
// stretch [start, next) of owner's burst. Every cycle of it is held by
// owner under the request lines of start, except the last when the
// burst ended there: that one sees the state it left behind.
func (b *Bus) starveStretch(col *stats.Collector, thr, start, next int64, owner int) {
	b.cycle = start
	if b.cur != nil {
		b.starveSpan(col, thr, next, owner)
		return
	}
	if next-1 > start {
		b.starveSpan(col, thr, next-1, owner)
	}
	b.cycle = next - 1
	b.starveSpan(col, thr, next, -1)
}

// burstBeats replays the burst's cycles from b.cycle up to at most limit
// and returns the cycle after the last one replayed; no arrival may fall
// in between. With a fault model armed it draws each data beat's faults
// in the naive order and stops after the first faulted beat, which it
// replays at its own cycle (so b.cycle may have moved to it).
func (b *Bus) burstBeats(limit int64, col *stats.Collector) int64 {
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
		return limit
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
		b.splitRequest(col, cur.master, first)
		return first + 1
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
	if b.fm != nil {
		if j, term := b.firstFault(first, stride, k, cur.master, msg.slave); j < k {
			// The beat at first+j*stride faulted: move the clean beats
			// before it, then replay it with the naive loop's
			// bookkeeping, which needs its cycle.
			b.moveWords(col, cur, msg, j)
			b.cycle = first + j*stride
			b.faultBeat(col, cur, m, msg.slave, term)
			return b.cycle + 1
		}
	}
	b.moveWords(col, cur, msg, k)
	last := first + (k-1)*stride // cycle of the batch's final beat

	if msg.remaining == 0 {
		col.MessageCompleted(cur.master, msg.words, msg.arrival, last)
		b.retire(cur)
		return last + 1
	}
	if cur.done == cur.words {
		// Burst budget exhausted mid-message: the master re-contends.
		b.cur = nil
		return last + 1
	}
	// Burst continues beyond limit. The naive loop would have set
	// waitLeft to the slave's wait states after the beat at last and
	// decremented it once per cycle since; limit <= last + stride
	// guarantees the remainder is non-negative.
	cur.waitLeft = waitStates - int(limit-last-1)
	return limit
}

// firstFault draws the fault events of the burst's next k data beats,
// the j-th at cycle first+j*stride, exactly as the naive loop would:
// error termination first, then corruption, stopping at the first beat
// either fires on. It returns that beat's index and whether it was an
// error termination, or k when every beat is clean.
func (b *Bus) firstFault(first, stride, k int64, master, slave int) (int64, bool) {
	for j := int64(0); j < k; j++ {
		c := first + j*stride
		if term := b.fm.ErrorResponse(c, master, slave); term || b.fm.WordError(c, master, slave) {
			return j, term
		}
	}
	return k, false
}

// moveWords transfers k words of msg in the burst cur.
func (b *Bus) moveWords(col *stats.Collector, cur *burst, msg *message, k int64) {
	col.WordsTransferred(cur.master, k)
	if len(b.slaves) > 0 {
		b.slaves[msg.slave].words += k
	}
	msg.remaining -= int(k)
	cur.done += int(k)
}
