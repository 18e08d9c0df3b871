// Package stats collects and reports the two performance metrics the
// LOTTERYBUS paper evaluates communication architectures on:
//
//   - bandwidth fraction: the share of total bus cycles in which a given
//     master transferred a word (Figs. 4, 6(a), 12(a), Table 1);
//   - per-word communication latency: the average number of bus cycles
//     spent per transferred word, including both waiting time and the
//     data transfer itself (Figs. 6(b), 12(b), 12(c), Table 1).
//
// A Collector accumulates raw events from the bus model; the derived
// metrics are computed on demand.
package stats

import (
	"fmt"
	"math"
)

// Collector accumulates per-master transfer statistics over a simulation.
type Collector struct {
	n      int
	cycles int64 // total simulated bus cycles
	busy   int64 // cycles in which the bus carried a word or control beat
	words  []int64
	// control counts bus cycles spent on control signalling (split-
	// transaction address beats): busy, but not data.
	control []int64

	messages []int64
	// latencySum[i] is Σ over completed messages of
	// (completion cycle − arrival cycle + 1); dividing by the words of
	// completed messages yields the paper's per-word latency metric
	// (waiting plus transfer cycles per word).
	latencySum     []int64
	completedWords []int64
	waitSum        []int64 // Σ of (first-word grant − arrival)
	maxMsgLat      []int64
	grants         []int64
	hist           []*Histogram
	// maxStartWait[i] is the longest arrival-to-first-grant wait of any
	// of master i's started messages. Unlike maxWait (which needs the
	// starvation detector armed), it is collected on every run, so TDMA
	// phase sensitivity is visible without touching the bus config. It
	// is deliberately NOT part of Fingerprint: it is a pure function of
	// the MessageStarted event stream whose aggregate (waitSum) is
	// already hashed, and keeping it out preserves fingerprint values
	// across repository versions.
	maxStartWait []int64

	// Resilience accumulators, fed by the bus fault machinery (package
	// bus, FaultModel) and all zero on a fault-free run. They join the
	// Fingerprint only once any of them (drops excepted) is nonzero, so
	// fault-free fingerprints are unchanged by their existence.
	retries      []int64 // bursts terminated by a slave error and re-attempted
	aborts       []int64 // messages abandoned (retry limit or split timeout)
	timeouts     []int64 // split transactions aborted by the watchdog
	errorWords   []int64 // bus beats consumed by errored transfers
	drops        []int64 // arrivals discarded on queue overflow (during Run)
	starveEvents []int64 // ended waits that exceeded the starvation threshold
	starveCycles []int64 // cycles spent pending beyond the threshold
	maxWait      []int64 // longest pending wait observed (incl. ongoing at Run end)
}

// NewCollector returns a Collector for n masters.
func NewCollector(n int) *Collector {
	if n <= 0 {
		panic("stats: collector needs at least one master")
	}
	c := &Collector{
		n:              n,
		words:          make([]int64, n),
		control:        make([]int64, n),
		messages:       make([]int64, n),
		latencySum:     make([]int64, n),
		completedWords: make([]int64, n),
		waitSum:        make([]int64, n),
		maxMsgLat:      make([]int64, n),
		grants:         make([]int64, n),
		hist:           make([]*Histogram, n),
		maxStartWait:   make([]int64, n),
		retries:        make([]int64, n),
		aborts:         make([]int64, n),
		timeouts:       make([]int64, n),
		errorWords:     make([]int64, n),
		drops:          make([]int64, n),
		starveEvents:   make([]int64, n),
		starveCycles:   make([]int64, n),
		maxWait:        make([]int64, n),
	}
	for i := range c.hist {
		c.hist[i] = NewHistogram()
	}
	return c
}

// N returns the number of masters tracked.
func (c *Collector) N() int { return c.n }

// AdvanceCycles adds cycles to the simulated-time denominator.
func (c *Collector) AdvanceCycles(cycles int64) { c.cycles += cycles }

// WordTransferred records a single word transferred by master m during
// one bus cycle.
func (c *Collector) WordTransferred(m int) {
	c.words[m]++
	c.busy++
}

// WordsTransferred records k words transferred by master m, one per bus
// cycle — the batched counterpart of WordTransferred used by the bus
// fast-forward engine. k calls to WordTransferred(m) and one call to
// WordsTransferred(m, k) leave the collector in identical states.
func (c *Collector) WordsTransferred(m int, k int64) {
	c.words[m] += k
	c.busy += k
}

// ControlCycle records a bus cycle consumed by master m's control
// signalling (e.g. a split-transaction address beat): the bus is busy
// but no data word moves.
func (c *Collector) ControlCycle(m int) {
	c.control[m]++
	c.busy++
}

// ControlCycles returns the control cycles consumed by master m.
func (c *Collector) ControlCycles(m int) int64 { return c.control[m] }

// Granted records an arbitration grant issued to master m.
func (c *Collector) Granted(m int) { c.grants[m]++ }

// MessageStarted records that the first word of a message from master m
// that arrived at cycle arrival was granted at cycle start.
func (c *Collector) MessageStarted(m int, arrival, start int64) {
	c.waitSum[m] += start - arrival
	if w := start - arrival; w > c.maxStartWait[m] {
		c.maxStartWait[m] = w
	}
}

// MaxStartWait returns the longest arrival-to-first-grant wait observed
// for master m's messages, in cycles. It is collected on every run (no
// starvation detector required) — the worst bus-access delay behind the
// per-word latency averages.
func (c *Collector) MaxStartWait(m int) int64 { return c.maxStartWait[m] }

// MessageCompleted records a fully transferred message of the given word
// count that arrived at cycle arrival and completed at cycle completion
// (the cycle its last word transferred).
func (c *Collector) MessageCompleted(m int, words int, arrival, completion int64) {
	lat := completion - arrival + 1 // inclusive of the completing cycle
	c.messages[m]++
	c.latencySum[m] += lat
	c.completedWords[m] += int64(words)
	if lat > c.maxMsgLat[m] {
		c.maxMsgLat[m] = lat
	}
	if words > 0 {
		c.hist[m].Add(float64(lat) / float64(words))
	}
}

// Retry records a burst of master m terminated by a slave error
// response and scheduled for another attempt.
func (c *Collector) Retry(m int) { c.retries[m]++ }

// Retries returns the retry count of master m.
func (c *Collector) Retries(m int) int64 { return c.retries[m] }

// Abort records a message of master m abandoned by the resilience
// machinery (retry limit exhausted or split transaction timed out).
func (c *Collector) Abort(m int) { c.aborts[m]++ }

// Aborts returns the abandoned-message count of master m.
func (c *Collector) Aborts(m int) int64 { return c.aborts[m] }

// SplitTimeout records an outstanding split transaction of master m
// aborted by the bus watchdog.
func (c *Collector) SplitTimeout(m int) { c.timeouts[m]++ }

// SplitTimeouts returns the watchdog-abort count of master m.
func (c *Collector) SplitTimeouts(m int) int64 { return c.timeouts[m] }

// ErrorWord records a bus cycle consumed by an errored transfer beat of
// master m: the bus is busy but no usable word moves.
func (c *Collector) ErrorWord(m int) {
	c.errorWords[m]++
	c.busy++
}

// ErrorWords returns the errored-beat count of master m.
func (c *Collector) ErrorWords(m int) int64 { return c.errorWords[m] }

// MessageDropped records an arrival of master m discarded on queue
// overflow. The bus records drops here only while a collector exists
// (always true during Run); Master.Dropped additionally counts drops
// from pre-run injection.
func (c *Collector) MessageDropped(m int) { c.drops[m]++ }

// Drops returns the queue-overflow drop count of master m.
func (c *Collector) Drops(m int) int64 { return c.drops[m] }

// AddStarvedCycles records k cycles master m spent pending beyond the
// starvation threshold.
func (c *Collector) AddStarvedCycles(m int, k int64) { c.starveCycles[m] += k }

// StarvedCycles returns how many cycles master m spent pending beyond
// the starvation threshold.
func (c *Collector) StarvedCycles(m int) int64 { return c.starveCycles[m] }

// WaitEnded records a completed pending wait of master m: the wait
// becomes a starvation event when it reached threshold, and feeds the
// max-wait tracker either way.
func (c *Collector) WaitEnded(m int, wait, threshold int64) {
	if wait >= threshold {
		c.starveEvents[m]++
	}
	if wait > c.maxWait[m] {
		c.maxWait[m] = wait
	}
}

// WaitObserved folds a still-ongoing pending wait of master m into the
// max-wait tracker without counting an event — how the bus exposes
// unbounded waits (a starved master never granted) at the end of a Run.
func (c *Collector) WaitObserved(m int, wait int64) {
	if wait > c.maxWait[m] {
		c.maxWait[m] = wait
	}
}

// StarvationEvents returns how many ended waits of master m exceeded
// the starvation threshold.
func (c *Collector) StarvationEvents(m int) int64 { return c.starveEvents[m] }

// MaxPendingWait returns the longest pending wait observed for master m
// by the starvation detector (including a wait still ongoing when the
// last Run ended).
func (c *Collector) MaxPendingWait(m int) int64 { return c.maxWait[m] }

// Cycles returns the total simulated bus cycles.
func (c *Collector) Cycles() int64 { return c.cycles }

// BusyCycles returns the cycles in which the bus carried a word,
// control beat or errored beat. Grant exclusivity (one owner per
// cycle) implies BusyCycles never exceeds Cycles, and work
// conservation implies it equals the sum of all per-master word,
// control and error-word counts — the two identities package check
// audits after every run.
func (c *Collector) BusyCycles() int64 { return c.busy }

// CompletedWords returns the total words of master m's completed
// messages (the denominator of PerWordLatency).
func (c *Collector) CompletedWords(m int) int64 { return c.completedWords[m] }

// Words returns the words transferred by master m.
func (c *Collector) Words(m int) int64 { return c.words[m] }

// TotalWords returns the words transferred by all masters.
func (c *Collector) TotalWords() int64 {
	var t int64
	for _, w := range c.words {
		t += w
	}
	return t
}

// Messages returns the completed message count for master m.
func (c *Collector) Messages(m int) int64 { return c.messages[m] }

// Grants returns the number of grants issued to master m.
func (c *Collector) Grants(m int) int64 { return c.grants[m] }

// BandwidthFraction returns the fraction of all simulated cycles in which
// master m was transferring a word, in [0, 1].
func (c *Collector) BandwidthFraction(m int) float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(c.words[m]) / float64(c.cycles)
}

// Utilization returns the fraction of cycles in which any word
// transferred; 1-Utilization() is the paper's "unutilized" band in
// Fig. 12(a).
func (c *Collector) Utilization() float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(c.busy) / float64(c.cycles)
}

// PerWordLatency returns the average bus cycles per transferred word for
// master m — waiting plus transfer time over the words of completed
// messages. Returns NaN when the master completed no messages.
func (c *Collector) PerWordLatency(m int) float64 {
	if c.completedWords[m] == 0 {
		return math.NaN()
	}
	return float64(c.latencySum[m]) / float64(c.completedWords[m])
}

// AvgMessageLatency returns the mean arrival-to-completion latency of
// master m's messages, or NaN when none completed.
func (c *Collector) AvgMessageLatency(m int) float64 {
	if c.messages[m] == 0 {
		return math.NaN()
	}
	return float64(c.latencySum[m]) / float64(c.messages[m])
}

// AvgWait returns the mean cycles a message from master m waited between
// arrival and its first granted word, or NaN when none started.
func (c *Collector) AvgWait(m int) float64 {
	if c.messages[m] == 0 {
		return math.NaN()
	}
	return float64(c.waitSum[m]) / float64(c.messages[m])
}

// MaxMessageLatency returns the worst-case message latency observed for
// master m.
func (c *Collector) MaxMessageLatency(m int) int64 { return c.maxMsgLat[m] }

// LatencyHistogram returns the per-word latency histogram of master m.
func (c *Collector) LatencyHistogram(m int) *Histogram { return c.hist[m] }

// Dist is a distributional summary of one master's per-word latency:
// the mean the paper reports plus the percentiles that distinguish
// "low and stable" from "merely low on average". All values are in bus
// cycles per word; NaN when the master completed no messages.
type Dist struct {
	Count                    int64
	Mean, P50, P95, P99, Max float64
}

// LatencyDist summarizes master m's per-word latency histogram.
func (c *Collector) LatencyDist(m int) Dist {
	h := c.hist[m]
	var p [3]float64
	h.quantiles([]float64{0.50, 0.95, 0.99}, p[:])
	return Dist{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   p[0],
		P95:   p[1],
		P99:   p[2],
		Max:   h.Max(),
	}
}

// Fingerprint returns an FNV-1a hash over every accumulator in the
// collector — cycle and busy counters, all per-master arrays, and the
// full per-word latency histograms (bit patterns of the floating-point
// state included). Two collectors fed identical event sequences hash
// equal; any divergence in counts, timing, or histogram contents changes
// the value. The equivalence suite uses this to prove the fast-forward
// engine bit-identical to the naive cycle loop.
func (c *Collector) Fingerprint() uint64 {
	h := fnvMix(fnvOffset, uint64(c.n))
	h = fnvMix(h, uint64(c.cycles))
	h = fnvMix(h, uint64(c.busy))
	for m := 0; m < c.n; m++ {
		h = fnvMix(h, uint64(c.words[m]))
		h = fnvMix(h, uint64(c.control[m]))
		h = fnvMix(h, uint64(c.messages[m]))
		h = fnvMix(h, uint64(c.latencySum[m]))
		h = fnvMix(h, uint64(c.completedWords[m]))
		h = fnvMix(h, uint64(c.waitSum[m]))
		h = fnvMix(h, uint64(c.maxMsgLat[m]))
		h = fnvMix(h, uint64(c.grants[m]))
		h = c.hist[m].fingerprint(h)
	}
	if c.faultActivity() {
		// Resilience accumulators join the hash only when the fault
		// machinery actually fired, so fault-free fingerprints remain
		// byte-identical to collectors predating these counters. Drops
		// alone never arm the marker (overflow happens on fault-free
		// buses too) but are mixed once anything else did.
		h = fnvMix(h, 0x6661756c74) // "fault" marker
		for m := 0; m < c.n; m++ {
			h = fnvMix(h, uint64(c.retries[m]))
			h = fnvMix(h, uint64(c.aborts[m]))
			h = fnvMix(h, uint64(c.timeouts[m]))
			h = fnvMix(h, uint64(c.errorWords[m]))
			h = fnvMix(h, uint64(c.drops[m]))
			h = fnvMix(h, uint64(c.starveEvents[m]))
			h = fnvMix(h, uint64(c.starveCycles[m]))
			h = fnvMix(h, uint64(c.maxWait[m]))
		}
	}
	return h
}

// faultActivity reports whether any resilience accumulator other than
// the drop counters is nonzero.
func (c *Collector) faultActivity() bool {
	for m := 0; m < c.n; m++ {
		if c.retries[m] != 0 || c.aborts[m] != 0 || c.timeouts[m] != 0 ||
			c.errorWords[m] != 0 || c.starveEvents[m] != 0 ||
			c.starveCycles[m] != 0 || c.maxWait[m] != 0 {
			return true
		}
	}
	return false
}

// fnvOffset is the FNV-1a 64-bit offset basis.
const fnvOffset = 14695981039346656037

// fnvMix folds one 64-bit value into an FNV-1a style hash.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// Summary returns a one-line summary for master m.
func (c *Collector) Summary(m int) string {
	return fmt.Sprintf("master %d: %.1f%% bw, %.2f cycles/word, %d msgs, %d words",
		m, 100*c.BandwidthFraction(m), c.PerWordLatency(m), c.messages[m], c.words[m])
}
