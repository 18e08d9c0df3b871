// Package bus implements a cycle-accurate model of a shared system-on-chip
// bus: masters posting communication transactions, slaves with optional
// wait states, bounded master-interface queues, burst transfers capped by
// a maximum transfer size, and a pluggable arbiter — the substrate on
// which every LOTTERYBUS experiment runs.
//
// The timing model is synchronous, one word per bus cycle:
//
//  1. traffic generators deliver newly arrived messages to the master
//     interfaces;
//  2. if the bus is idle, the arbiter examines the accumulated request
//     map and may issue a grant (arbitration is pipelined with data
//     transfer by default, matching paper §4.1; Config.ArbLatency
//     inserts idle cycles per grant for non-pipelined designs);
//  3. the granted master transfers one word (plus any slave wait
//     states); a grant covers at most MaxBurst words of a single
//     message, "to prevent a master from monopolizing the bus".
//
// The model has no opinion about arbitration policy: package arb provides
// static-priority, TDMA, round-robin and lottery arbiters behind the
// Arbiter interface defined here.
package bus

import (
	"fmt"
	"math/bits"

	"lotterybus/internal/core"
	"lotterybus/internal/stats"
)

// Grant is an arbiter's decision: the winning master and the maximum
// number of words this grant covers. The bus additionally clamps the
// burst to the head message's remaining words and Config.MaxBurst.
type Grant struct {
	Master int
	Words  int
}

// Requests is the arbiter's view of the master interfaces at one cycle:
// the request map plus the per-master state a hardware arbiter would see
// on its input lines (pending word counts for burst sizing, current
// lottery ticket holdings for a dynamic lottery manager).
type Requests interface {
	// NumMasters returns the number of master interfaces on the bus.
	NumMasters() int
	// Pending reports whether master i has a pending request (r_i).
	Pending(i int) bool
	// Mask returns the request map as a bitset (bit i == r_i). On a
	// bus of at most 64 masters the whole map is Mask().Mask64().
	Mask() core.Bitset
	// PendingWords returns the remaining word count of master i's head
	// message, or 0 when idle.
	PendingWords(i int) int
	// Tickets returns master i's current lottery ticket holding.
	Tickets(i int) uint64
}

// Arbiter decides bus ownership. Arbitrate is called whenever the bus
// needs a new grant (it is never called with an empty request map). An
// arbiter may decline to grant (ok == false), costing one idle cycle —
// the redraw slack policy of a hardware lottery manager does exactly
// that.
type Arbiter interface {
	// Name identifies the arbitration scheme in reports.
	Name() string
	// Arbitrate picks a winner among the pending requests.
	Arbitrate(cycle int64, req Requests) (Grant, bool)
}

// Preemptor is an optional Arbiter extension enabling transfer
// pre-emption (paper §2.3 lists pre-emption among the features any of
// these architectures can add). When the bus runs with
// Config.Preemption and its arbiter implements Preemptor, Preempt is
// consulted every cycle of an ongoing burst; returning a grant for a
// different master aborts the burst (the interrupted message keeps its
// queue position and re-arbitrates for its remaining words).
type Preemptor interface {
	Arbiter
	// Preempt reports whether, given the current request map, the burst
	// held by owner should be interrupted in favour of another master.
	Preempt(cycle int64, owner int, req Requests) (Grant, bool)
}

// FaultModel is the bus's view of a fault injector (package fault
// provides the deterministic, seeded implementation). All methods must
// be pure functions of the injector's own PRNG state — the bus consults
// them in a fixed per-cycle order, so a deterministic model yields
// bit-reproducible degraded runs. A model with Armed() == false is
// ignored entirely and the bus behaves exactly as if none were
// attached. The fast-forward engine draws the per-beat faults itself,
// in the same order, and leaves the babble windows to the per-cycle
// loop.
type FaultModel interface {
	// Armed reports whether any fault mechanism can fire. The bus
	// checks it once per Run.
	Armed() bool
	// ErrorResponse reports whether the slave asserts an error
	// termination on this data beat: the beat is consumed, the burst
	// terminates, and the master's retry machinery takes over.
	ErrorResponse(cycle int64, master, slave int) bool
	// WordError reports a transient single-word corruption: the beat is
	// consumed against the grant budget but the word must be resent.
	WordError(cycle int64, master, slave int) bool
	// SplitHang reports whether the slave silently drops this split
	// request: the response phase never becomes ready and only the bus
	// watchdog (Config.SplitTimeout) can free the master.
	SplitHang(cycle int64, master, slave int) bool
	// Babble lets a misbehaving master inject a spurious message this
	// cycle (ok == false when master is well-behaved or idle).
	Babble(cycle int64, master int) (words, slave int, ok bool)
	// BabbleWindow returns the earliest window [start, stop) with stop >
	// cycle on which Babble may inject: start is math.MaxInt64 when no
	// babbler can fire again, stop is math.MaxInt64 for a window that
	// never closes. Babble must report ok == false, and draw nothing, on
	// every cycle before start. Run executes each window on the
	// per-cycle loop and the stretches between windows on the
	// fast-forward engine.
	BabbleWindow(cycle int64) (start, stop int64)
}

// Generator produces the communication transactions of one master.
// Implementations live in package traffic.
type Generator interface {
	// Tick is called once per cycle, before arbitration, with the
	// master's current queue depth. The generator calls emit once per
	// message arriving this cycle (words >= 1, slave is the destination
	// slave index).
	Tick(cycle int64, queued int, emit func(words, slave int))
}

// Config parameterizes a Bus.
type Config struct {
	// MaxBurst caps the words a single grant may cover. Zero selects
	// the paper's default of 16 (Fig. 1, BURST_SIZE=16).
	MaxBurst int
	// ArbLatency is the number of idle bus cycles consumed by each
	// arbitration before the first word of the burst moves. Zero models
	// arbitration fully pipelined with data transfer (paper §4.1).
	ArbLatency int
	// DefaultQueueCap bounds each master-interface queue (messages).
	// Zero selects 1024; arrivals beyond the cap are dropped and
	// counted.
	DefaultQueueCap int
	// Preemption lets a Preemptor arbiter interrupt ongoing bursts.
	Preemption bool
	// RetryLimit bounds how many times a master re-attempts a burst
	// terminated by a slave error response before the message is
	// aborted. Zero selects 16. Only consulted when a fault model is
	// armed (error responses cannot occur otherwise).
	RetryLimit int
	// RetryBackoff is the linear backoff unit: after its k-th
	// consecutive error on a message, a master stays off the request
	// lines for 1 + k*RetryBackoff cycles. Zero retries on the next
	// cycle.
	RetryBackoff int
	// SplitTimeout, when positive, arms the bus watchdog: an
	// outstanding split transaction whose response has not become ready
	// within SplitTimeout cycles of its address beat is aborted,
	// freeing the master. The fast-forward engine treats each deadline
	// as an event.
	SplitTimeout int64
	// StarvationThreshold, when positive, arms the starvation detector:
	// every cycle a pending master has waited at or beyond the
	// threshold is counted, and waits that long are recorded as
	// starvation events. The fast-forward engine counts whole stretches
	// between events at once.
	StarvationThreshold int64
}

func (c *Config) fill() {
	if c.MaxBurst == 0 {
		c.MaxBurst = 16
	}
	if c.DefaultQueueCap == 0 {
		c.DefaultQueueCap = 1024
	}
	if c.RetryLimit == 0 {
		c.RetryLimit = 16
	}
}

// message is one queued communication transaction.
type message struct {
	arrival   int64
	words     int
	remaining int
	slave     int
	started   bool
}

// msgQueue is a growable ring buffer of messages. The simulator enqueues
// and dequeues millions of messages per run; a ring reaches its
// steady-state capacity once and then recycles it, where a sliced-and-
// appended Go slice would reallocate continually. Capacities are always
// powers of two (8, 16, 32, ...), so index wrapping is a bitmask rather
// than an integer modulo on the hot path.
type msgQueue struct {
	buf  []message
	head int
	n    int
}

// len returns the number of queued messages.
func (q *msgQueue) len() int { return q.n }

// front returns the head message. The pointer is invalidated by the next
// push (the ring may grow), so callers must not retain it across cycles.
func (q *msgQueue) front() *message {
	return &q.buf[q.head]
}

// push appends a message, growing the ring if full.
func (q *msgQueue) push(m message) {
	if q.n == len(q.buf) {
		// Doubling from 8 keeps every capacity a power of two.
		grown := make([]message, max(8, 2*len(q.buf)))
		mask := len(q.buf) - 1
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&mask]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = m
	q.n++
}

// pop discards the head message.
func (q *msgQueue) pop() {
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// words sums the remaining word counts of all queued messages.
func (q *msgQueue) words() int64 {
	var w int64
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		w += int64(q.buf[(q.head+i)&mask].remaining)
	}
	return w
}

// Master is one master interface on the bus.
type Master struct {
	name     string
	gen      Generator
	queue    msgQueue
	queueCap int
	tickets  uint64
	dropped  int64
	// emit is the generator callback, allocated once per master rather
	// than once per cycle in the hot loop.
	emit func(words, slave int)
	// outstanding is the split transaction awaiting its response phase
	// (at most one per master); respReady is the cycle its data becomes
	// available. It always points at outBuf, reused across transactions.
	outstanding *message
	outBuf      message
	respReady   int64
	// Resilience state, all quiescent (and cost-free on the hot path)
	// unless the fault machinery is in play. retries counts consecutive
	// error terminations of the head message; backoffUntil keeps the
	// master off the request lines until that cycle; splitIssued stamps
	// the address beat of the outstanding split for the watchdog;
	// waitSince (-1 when not waiting) stamps the cycle the current
	// pending wait began for the starvation detector.
	retries      int
	backoffUntil int64
	splitIssued  int64
	waitSince    int64
	// Conservation ledger (package check audits it after a run): every
	// word accepted into the queue is accounted enqueued; words of
	// arrivals refused on overflow are accounted dropped; words of
	// messages abandoned mid-flight (retry limit, watchdog) are
	// accounted lost. enqueued == transferred + lost + still queued or
	// outstanding must hold at any Run boundary.
	enqMsgs   int64
	enqWords  int64
	dropWords int64
	lostWords int64
}

// Name returns the master's name.
func (m *Master) Name() string { return m.name }

// Tickets returns the master's current lottery ticket holding.
func (m *Master) Tickets() uint64 { return m.tickets }

// SetTickets updates the master's lottery ticket holding; a dynamic
// lottery arbiter observes the new value at its next arbitration.
func (m *Master) SetTickets(t uint64) { m.tickets = t }

// QueueLen returns the number of queued messages.
func (m *Master) QueueLen() int { return m.queue.len() }

// Dropped returns how many arrivals were discarded on queue overflow.
func (m *Master) Dropped() int64 { return m.dropped }

// Outstanding reports whether a split transaction is awaiting its
// response phase.
func (m *Master) Outstanding() bool { return m.outstanding != nil }

// EnqueuedMessages returns how many messages were accepted into the
// master's queue (generator arrivals, Inject calls and babble alike).
func (m *Master) EnqueuedMessages() int64 { return m.enqMsgs }

// EnqueuedWords returns the total words of all accepted messages.
func (m *Master) EnqueuedWords() int64 { return m.enqWords }

// DroppedWords returns the total words of arrivals refused on queue
// overflow (the word-granular counterpart of Dropped).
func (m *Master) DroppedWords() int64 { return m.dropWords }

// LostWords returns the words of messages abandoned mid-flight by the
// resilience machinery — the untransferred remainder of bursts killed
// past the retry limit and of split transactions aborted by the
// watchdog. Always zero on a fault-free bus.
func (m *Master) LostWords() int64 { return m.lostWords }

// QueuedWords returns the remaining words of all messages still in the
// master's queue.
func (m *Master) QueuedWords() int64 { return m.queue.words() }

// OutstandingWords returns the remaining words of the master's
// outstanding split transaction, or zero when none is pending.
func (m *Master) OutstandingWords() int64 {
	if m.outstanding == nil {
		return 0
	}
	return int64(m.outstanding.remaining)
}

// Slave is one slave interface on the bus.
type Slave struct {
	name         string
	waitStates   int
	splitLatency int
	words        int64
}

// Name returns the slave's name.
func (s *Slave) Name() string { return s.name }

// Words returns the number of words transferred to/from this slave.
func (s *Slave) Words() int64 { return s.words }

// MasterOpts configures AddMaster.
type MasterOpts struct {
	// QueueCap overrides Config.DefaultQueueCap when nonzero.
	QueueCap int
	// Tickets is the initial lottery ticket holding (ignored by
	// non-lottery arbiters). Zero is allowed but a dynamic lottery will
	// never grant a zero-ticket master while others hold tickets.
	Tickets uint64
}

// SlaveOpts configures AddSlave.
type SlaveOpts struct {
	// WaitStates is the number of extra bus cycles each word transfer
	// to this slave consumes.
	WaitStates int
	// SplitLatency, when positive, makes the slave a split-transaction
	// target (paper §2.3's "multithreaded transactions"): a granted
	// request occupies the bus for a single address beat, the bus is
	// released while the slave processes for SplitLatency cycles, and
	// the master then re-arbitrates to move the data words. Each master
	// may have one split transaction outstanding.
	SplitLatency int
}

// burst tracks the transfer in progress. It deliberately does not hold
// a *message: queue-head messages live in a ring buffer whose backing
// array can move when the generator pushes, so the live message is
// re-fetched each cycle.
type burst struct {
	master int
	words  int // words covered by this grant
	done   int
	// control marks a split-request address beat (one bus cycle, no
	// data words).
	control bool
	// fromOutstanding marks a split response-phase transfer.
	fromOutstanding bool
	waitLeft        int // cycles to stall before the next word moves
}

// Bus is a shared bus instance. Construct with New, populate with
// AddMaster/AddSlave, attach an arbiter with SetArbiter, then Run.
type Bus struct {
	cfg     Config
	masters []*Master
	slaves  []*Slave
	arb     Arbiter
	col     *stats.Collector
	cycle   int64
	// cur points at curBuf while a burst is in progress (nil otherwise);
	// the buffer is reused so steady-state grants allocate nothing.
	cur    *burst
	curBuf burst
	// preemptions counts bursts aborted by a Preemptor arbiter.
	preemptions int64
	// fault is the attached fault model (nil for a clean bus); fm is
	// the armed view the hot paths consult — nil whenever fault is nil
	// or disarmed, so a disarmed model costs nothing per cycle.
	fault FaultModel
	fm    FaultModel
	// OnOwner, when non-nil, is invoked once per cycle with the index of
	// the master that transferred a word this cycle, or -1 for an idle
	// (or stalled) cycle. Package trace uses it to record waveforms.
	OnOwner func(cycle int64, master int)
	// OnCycle, when non-nil, is invoked at the start of every cycle,
	// before traffic generation — the hook dynamic-ticket policies use
	// to re-provision holdings at run time.
	OnCycle func(cycle int64, b *Bus)
	// OnMessageComplete, when non-nil, is invoked when the last word of
	// a message transfers. Bridges use it to forward transactions onto
	// another bus.
	OnMessageComplete func(master, words, slave int, arrival, completion int64)

	// DisableFastForward forces the naive per-cycle loop even when the
	// fast-forward engine's preconditions hold (see fastforward.go).
	// The equivalence suite and the microbenchmarks use it to compare
	// the two paths; production callers never need it.
	DisableFastForward bool

	// The request map is kept as the bus state changes instead of being
	// rebuilt master by master each cycle. queued has bit i set while
	// master i's queue is non-empty: enqueue sets it and popHead, the one
	// place a queue shrinks, clears it. A queue alone decides a request
	// line except while the master has a split outstanding (its line
	// follows the response's readiness, a function of the cycle) or sits
	// out a retry backoff; held marks those masters. Only they are
	// re-evaluated with masterPending when the map is loaded
	// (loadRequests), and each is released once neither condition holds,
	// so a clean bus loads its map as one copy. held also covers every
	// master the watchdog and the fast engine's timers need to look at.
	queued core.Bitset
	held   core.Bitset

	// mask caches the request map loaded for cycle maskFor (-1 when
	// nothing is), so arbiters calling Requests.Mask or Pending during
	// arbitration read the map the cycle loop just loaded.
	mask    core.Bitset
	maskFor int64

	// ffCycles counts simulated cycles advanced in bulk by the
	// fast-forward engine (dead-gap skips plus batched burst cycles).
	ffCycles int64

	// The fast path's arrival cache (see primeArrivals): each master's
	// Scheduler view and Saturator depth (zero for any other generator),
	// the next cycle its Tick may emit, and the minimum over masters.
	scheds  []Scheduler
	depths  []int
	nextArr []int64
	arrMin  int64

	reqView requestView
}

// New returns an empty bus with the given configuration.
func New(cfg Config) *Bus {
	cfg.fill()
	b := &Bus{cfg: cfg, maskFor: -1}
	b.reqView.b = b
	return b
}

// AddMaster attaches a master interface driven by gen and returns it.
// gen may be nil for a master fed only by Inject.
func (b *Bus) AddMaster(name string, gen Generator, opts MasterOpts) *Master {
	cap := opts.QueueCap
	if cap == 0 {
		cap = b.cfg.DefaultQueueCap
	}
	m := &Master{name: name, gen: gen, queueCap: cap, tickets: opts.Tickets, waitSince: -1}
	idx := len(b.masters)
	m.emit = func(words, slave int) {
		b.enqueue(idx, words, slave, b.cycle)
	}
	b.masters = append(b.masters, m)
	return m
}

// AddSlave attaches a slave interface and returns its index.
func (b *Bus) AddSlave(name string, opts SlaveOpts) int {
	b.slaves = append(b.slaves, &Slave{
		name:         name,
		waitStates:   opts.WaitStates,
		splitLatency: opts.SplitLatency,
	})
	return len(b.slaves) - 1
}

// SetArbiter attaches the arbitration scheme.
func (b *Bus) SetArbiter(a Arbiter) { b.arb = a }

// SetFaultModel attaches a fault injector. A nil or disarmed model
// leaves the bus bit-identical to a clean one. Run re-reads Armed() on
// every call, so detaching or disarming takes effect at the next Run.
func (b *Bus) SetFaultModel(fm FaultModel) { b.fault = fm }

// FaultModel returns the attached fault model (nil when none).
func (b *Bus) FaultModel() FaultModel { return b.fault }

// Arbiter returns the attached arbiter.
func (b *Bus) Arbiter() Arbiter { return b.arb }

// Masters returns the master interfaces in index order.
func (b *Bus) Masters() []*Master { return b.masters }

// Master returns master i.
func (b *Bus) Master(i int) *Master { return b.masters[i] }

// Slave returns slave i.
func (b *Bus) Slave(i int) *Slave { return b.slaves[i] }

// NumMasters returns the number of master interfaces.
func (b *Bus) NumMasters() int { return len(b.masters) }

// NumSlaves returns the number of slave interfaces.
func (b *Bus) NumSlaves() int { return len(b.slaves) }

// Collector returns the statistics collector (created on first use or by
// Run).
func (b *Bus) Collector() *stats.Collector {
	if b.col == nil {
		b.col = stats.NewCollector(len(b.masters))
	}
	return b.col
}

// Cycle returns the current simulation cycle (the next cycle to execute).
func (b *Bus) Cycle() int64 { return b.cycle }

// Busy reports whether a burst transfer is in progress.
func (b *Bus) Busy() bool { return b.cur != nil }

// Preemptions returns the number of bursts aborted by pre-emption.
func (b *Bus) Preemptions() int64 { return b.preemptions }

// FastForwarded returns the number of simulated cycles the fast-forward
// engine advanced in bulk instead of executing one by one: the cycles
// of each dead gap (idle bus, empty request map) beyond the one that
// found it, plus the cycles of each burst beyond the one that started
// or resumed it. Zero after a run means the naive
// loop ran throughout (hooks, an active preemptor, a generator that is
// neither a Scheduler nor a Saturator, or a babble window spanning the
// run force it; see fastforward.go).
func (b *Bus) FastForwarded() int64 { return b.ffCycles }

// Inject enqueues a message on master m programmatically, bypassing its
// generator. It reports whether the message was accepted (false on queue
// overflow, which is also counted against the master).
func (b *Bus) Inject(m int, words, slave int) bool {
	b.maskFor = -1 // the map loaded for this cycle may change
	return b.enqueue(m, words, slave, b.cycle)
}

func (b *Bus) enqueue(m int, words, slave int, cycle int64) bool {
	if words <= 0 {
		panic(fmt.Sprintf("bus: master %d emitted %d-word message", m, words))
	}
	if len(b.slaves) > 0 && (slave < 0 || slave >= len(b.slaves)) {
		panic(fmt.Sprintf("bus: master %d addressed invalid slave %d", m, slave))
	}
	mm := b.masters[m]
	if mm.queue.len() >= mm.queueCap {
		mm.dropped++
		mm.dropWords += int64(words)
		if b.col != nil {
			b.col.MessageDropped(m)
		}
		return false
	}
	mm.enqMsgs++
	mm.enqWords += int64(words)
	mm.queue.push(message{arrival: cycle, words: words, remaining: words, slave: slave})
	b.queued.Set(m)
	return true
}

// popHead discards master i's head message, clearing its queued bit when
// that empties the queue. Every pop goes through here.
func (b *Bus) popHead(i int) {
	q := &b.masters[i].queue
	q.pop()
	if q.len() == 0 {
		b.queued.Clear(i)
	}
}

// validate checks the bus is runnable.
func (b *Bus) validate() error {
	if len(b.masters) == 0 {
		return fmt.Errorf("bus: no masters")
	}
	if len(b.masters) > core.MaxMasters {
		return fmt.Errorf("bus: %d masters exceeds core.MaxMasters (%d)", len(b.masters), core.MaxMasters)
	}
	if b.arb == nil {
		return fmt.Errorf("bus: no arbiter attached")
	}
	if b.col != nil && b.col.N() != len(b.masters) {
		return fmt.Errorf("bus: collector tracks %d masters, bus has %d", b.col.N(), len(b.masters))
	}
	// Negative timing parameters would silently corrupt the cycle
	// accounting (fill only replaces zeros), so reject them up front.
	if b.cfg.MaxBurst < 0 {
		return fmt.Errorf("bus: negative MaxBurst %d", b.cfg.MaxBurst)
	}
	if b.cfg.ArbLatency < 0 {
		return fmt.Errorf("bus: negative ArbLatency %d", b.cfg.ArbLatency)
	}
	if b.cfg.DefaultQueueCap < 0 {
		return fmt.Errorf("bus: negative DefaultQueueCap %d", b.cfg.DefaultQueueCap)
	}
	if b.cfg.RetryLimit < 0 {
		return fmt.Errorf("bus: negative RetryLimit %d", b.cfg.RetryLimit)
	}
	if b.cfg.RetryBackoff < 0 {
		return fmt.Errorf("bus: negative RetryBackoff %d", b.cfg.RetryBackoff)
	}
	if b.cfg.SplitTimeout < 0 {
		return fmt.Errorf("bus: negative SplitTimeout %d", b.cfg.SplitTimeout)
	}
	if b.cfg.StarvationThreshold < 0 {
		return fmt.Errorf("bus: negative StarvationThreshold %d", b.cfg.StarvationThreshold)
	}
	for i, s := range b.slaves {
		if s.waitStates < 0 {
			return fmt.Errorf("bus: slave %d (%s) has negative WaitStates %d", i, s.name, s.waitStates)
		}
		if s.splitLatency < 0 {
			return fmt.Errorf("bus: slave %d (%s) has negative SplitLatency %d", i, s.name, s.splitLatency)
		}
	}
	return nil
}

// Run executes n bus cycles. It may be called repeatedly to continue the
// simulation. Statistics accumulate in Collector().
//
// When no per-cycle observer is attached and every generator is
// event-predictable, Run dispatches to the fast-forward engine
// (fastforward.go), which produces bit-identical results while leaping
// over dead cycles; otherwise the naive per-cycle loop below runs. A
// babble window of an armed fault model splits the Run at its edges:
// the window runs on the per-cycle loop, the stretches around it on the
// fast engine.
func (b *Bus) Run(n int64) error {
	if err := b.validate(); err != nil {
		return err
	}
	col := b.Collector()
	// The armed view is resolved once per Run, before dispatch, so a
	// model disarmed (or detached) since the last Run is never consulted
	// by either engine.
	b.fm = nil
	if b.fault != nil && b.fault.Armed() {
		b.fm = b.fault
	}
	end := b.cycle + n
	fast := !b.DisableFastForward && b.fastForwardable()
	for b.cycle < end {
		start, stop := b.babbleWindow()
		var err error
		switch {
		case !fast:
			err = b.runNaive(end, col)
		case start > b.cycle:
			err = b.runFast(min(end, start), col)
		default:
			err = b.runNaive(min(end, stop), col)
		}
		if err != nil {
			return err
		}
	}
	if thr := b.cfg.StarvationThreshold; thr > 0 {
		// Fold waits still in progress into the max-wait tracker without
		// ending them: a master that was never granted shows its full,
		// unbounded wait here. waitSince is kept so a follow-up Run
		// continues the same wait.
		for i, m := range b.masters {
			if m.waitSince >= 0 {
				col.WaitObserved(i, b.cycle-m.waitSince)
			}
		}
	}
	return nil
}

// babbleWindow returns the next window [start, stop), stop > b.cycle, on
// whose cycles the armed fault model may babble; start is never when no
// babbler can fire.
func (b *Bus) babbleWindow() (start, stop int64) {
	if b.fm == nil {
		return never, never
	}
	start, stop = b.fm.BabbleWindow(b.cycle)
	return start, max(stop, b.cycle+1)
}

// runNaive is the per-cycle loop: it executes every cycle up to end.
func (b *Bus) runNaive(end int64, col *stats.Collector) error {
	// Hoist loop invariants: the preemptor type assertion and the slow
	// per-cycle hook checks would otherwise run every simulated cycle.
	var pre Preemptor
	if b.cfg.Preemption {
		pre, _ = b.arb.(Preemptor)
	}
	splitTO := b.cfg.SplitTimeout
	starveThr := b.cfg.StarvationThreshold
	for ; b.cycle < end; b.cycle++ {
		cycle := b.cycle
		if b.OnCycle != nil {
			b.OnCycle(cycle, b)
		}

		// Phase 1: traffic arrival, plus spurious babble injection.
		for i, m := range b.masters {
			if b.fm != nil {
				if words, slave, ok := b.fm.Babble(cycle, i); ok {
					b.enqueue(i, words, slave, cycle)
				}
			}
			if m.gen == nil {
				continue
			}
			m.gen.Tick(cycle, m.queue.len(), m.emit)
		}

		if splitTO > 0 {
			b.watchdog(col, splitTO)
		}

		// Phase 2: arbitration when idle; pre-emption check otherwise.
		if b.cur == nil {
			if _, err := b.arbitrate(col); err != nil {
				return err
			}
		} else if pre != nil {
			b.loadRequests()
			if g, ok := pre.Preempt(cycle, b.cur.master, &b.reqView); ok && g.Master != b.cur.master {
				b.preemptions++
				b.cur = nil
				if err := b.startBurst(g, col); err != nil {
					return err
				}
			}
		}

		// Phase 3: word transfer.
		owner := -1
		if b.cur != nil {
			if b.cur.waitLeft > 0 {
				b.cur.waitLeft--
			} else {
				owner = b.transferWord(col)
			}
		}
		if b.OnOwner != nil {
			b.OnOwner(cycle, owner)
		}
		if starveThr > 0 {
			b.starveSpan(col, starveThr, cycle+1, b.holder())
		}
		col.AdvanceCycles(1)
	}
	return nil
}

// holder returns the master holding the bus, or -1 when it is idle.
func (b *Bus) holder() int {
	if b.cur == nil {
		return -1
	}
	return b.cur.master
}

// arbitrate consults the arbiter when anybody requests at b.cycle and
// starts the burst it grants; live reports whether the request map was
// non-empty.
func (b *Bus) arbitrate(col *stats.Collector) (live bool, err error) {
	if b.loadRequests().None() {
		return false, nil
	}
	if g, ok := b.arb.Arbitrate(b.cycle, &b.reqView); ok {
		return true, b.startBurst(g, col)
	}
	return true, nil
}

// eachHeld calls f for every held master in index order.
func (b *Bus) eachHeld(f func(i int, m *Master)) {
	for w, word := range b.held {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			f(i, b.masters[i])
		}
	}
}

// watchdog aborts the split transactions whose response has not become
// ready within splitTO cycles of their address beat.
func (b *Bus) watchdog(col *stats.Collector, splitTO int64) {
	b.eachHeld(func(i int, m *Master) {
		if m.outstanding != nil && m.respReady > b.cycle &&
			b.cycle-m.splitIssued >= splitTO {
			col.SplitTimeout(i)
			col.Abort(i)
			m.lostWords += int64(m.outstanding.remaining)
			m.outstanding = nil
			m.retries = 0
		}
	})
}

// starveSpan advances the starvation detector over the cycles
// [b.cycle, to), across which owner (-1 for nobody) holds the bus and
// every request line holds still: a master pending on the request lines
// while another (or nobody) holds the bus is waiting; each waiting
// cycle at or beyond thr counts as starved, and a wait's end is scored
// as an event when it reached thr. The per-cycle loop calls it for one
// cycle at a time, the fast engine for whole stretches between events,
// so the starved count is the arithmetic of a fixed pending set.
func (b *Bus) starveSpan(col *stats.Collector, thr, to int64, owner int) {
	req := b.loadRequests()
	for i, m := range b.masters {
		if i == owner || !requesting(req, i) {
			if m.waitSince >= 0 {
				col.WaitEnded(i, b.cycle-m.waitSince, thr)
				m.waitSince = -1
			}
			continue
		}
		if m.waitSince < 0 {
			m.waitSince = b.cycle
		}
		if k := to - max(b.cycle, m.waitSince+thr); k > 0 {
			col.AddStarvedCycles(i, k)
		}
	}
}

// loadRequests loads the request map at b.cycle into the mask cache and
// returns it: the queued masters, with each held master's line
// re-evaluated by masterPending. A held master whose split and backoff
// are both over is released, its line from then on its queue's (the map
// is read at non-decreasing cycles, and setting either condition again
// re-holds the master).
func (b *Bus) loadRequests() *core.Bitset {
	b.mask, b.maskFor = b.queued, b.cycle
	if b.held.Any() {
		b.settleHeld()
	}
	return &b.mask
}

// settleHeld re-evaluates the held masters' request lines in the mask
// cache and releases the masters that need no more watching.
func (b *Bus) settleHeld() {
	b.eachHeld(func(i int, m *Master) {
		switch {
		case m.outstanding == nil && m.backoffUntil <= b.cycle:
			b.held.Clear(i)
		case b.masterPending(i):
			b.mask.Set(i)
		default:
			b.mask.Clear(i)
		}
	})
}

// requests returns the request map at b.cycle from the mask cache,
// loading it when it was loaded for another cycle.
func (b *Bus) requests() *core.Bitset {
	if b.maskFor != b.cycle {
		return b.loadRequests()
	}
	return &b.mask
}

// requesting reports whether bit i of req is set. It is Bitset.Test
// through the pointer: Test's value receiver would copy the whole map
// for each master asked about.
func requesting(req *core.Bitset, i int) bool { return req[i>>6]>>uint(i&63)&1 == 1 }

// masterPending reports whether master i's request line is asserted: a
// ready split response takes precedence; a master with an outstanding
// split transaction is otherwise masked (one outstanding per master).
func (b *Bus) masterPending(i int) bool {
	m := b.masters[i]
	if m.backoffUntil > b.cycle {
		// Retry backoff after an error termination; never set on a
		// fault-free bus, so this is one dead compare on the hot path.
		return false
	}
	if m.outstanding != nil {
		return b.cycle >= m.respReady
	}
	return m.queue.len() > 0
}

func (b *Bus) startBurst(g Grant, col *stats.Collector) error {
	if g.Master < 0 || g.Master >= len(b.masters) {
		return fmt.Errorf("bus: arbiter %q granted invalid master %d", b.arb.Name(), g.Master)
	}
	m := b.masters[g.Master]
	if !b.masterPending(g.Master) {
		return fmt.Errorf("bus: arbiter %q granted idle master %d", b.arb.Name(), g.Master)
	}
	if g.Words <= 0 {
		return fmt.Errorf("bus: arbiter %q granted %d words", b.arb.Name(), g.Words)
	}
	col.Granted(g.Master)

	// Split response phase: move the outstanding transaction's data.
	if m.outstanding != nil {
		words := g.Words
		if words > b.cfg.MaxBurst {
			words = b.cfg.MaxBurst
		}
		if words > m.outstanding.remaining {
			words = m.outstanding.remaining
		}
		b.curBuf = burst{
			master:          g.Master,
			words:           words,
			fromOutstanding: true,
			waitLeft:        b.cfg.ArbLatency + b.slaves[m.outstanding.slave].waitStates,
		}
		b.cur = &b.curBuf
		return nil
	}

	head := m.queue.front()
	// Split request phase: a single address beat, then the bus is
	// released while the slave processes.
	if len(b.slaves) > 0 && b.slaves[head.slave].splitLatency > 0 {
		b.curBuf = burst{
			master:   g.Master,
			words:    1,
			control:  true,
			waitLeft: b.cfg.ArbLatency,
		}
		b.cur = &b.curBuf
		return nil
	}

	words := g.Words
	if words > b.cfg.MaxBurst {
		words = b.cfg.MaxBurst
	}
	if words > head.remaining {
		words = head.remaining
	}
	waitStates := 0
	if len(b.slaves) > 0 {
		waitStates = b.slaves[head.slave].waitStates
	}
	b.curBuf = burst{
		master:   g.Master,
		words:    words,
		waitLeft: b.cfg.ArbLatency + waitStates,
	}
	b.cur = &b.curBuf
	return nil
}

// transferWord moves one word of the active burst and returns the owning
// master index.
func (b *Bus) transferWord(col *stats.Collector) int {
	cur := b.cur
	m := b.masters[cur.master]
	var msg *message
	if cur.fromOutstanding {
		msg = m.outstanding
	} else {
		msg = m.queue.front()
	}

	if !msg.started {
		msg.started = true
		col.MessageStarted(cur.master, msg.arrival, b.cycle)
	}

	if cur.control {
		b.splitRequest(col, cur.master, b.cycle)
		return cur.master
	}

	if b.fm != nil {
		if term := b.fm.ErrorResponse(b.cycle, cur.master, msg.slave); term || b.fm.WordError(b.cycle, cur.master, msg.slave) {
			b.faultBeat(col, cur, m, msg.slave, term)
			return cur.master
		}
	}

	msg.remaining--
	cur.done++
	col.WordTransferred(cur.master)
	if len(b.slaves) > 0 {
		b.slaves[msg.slave].words++
	}

	if msg.remaining == 0 {
		col.MessageCompleted(cur.master, msg.words, msg.arrival, b.cycle)
		if b.OnMessageComplete != nil {
			b.OnMessageComplete(cur.master, msg.words, msg.slave, msg.arrival, b.cycle)
		}
		b.retire(cur)
		return cur.master
	}
	if cur.done == cur.words {
		// Burst budget exhausted mid-message: the master re-contends.
		b.cur = nil
		return cur.master
	}
	// More words in this burst; charge the slave's wait states again.
	if len(b.slaves) > 0 {
		cur.waitLeft = b.slaves[msg.slave].waitStates
	}
	return cur.master
}

// splitRequest issues master i's split address beat for its head
// message at cycle c: one control cycle, after which the message waits
// in the outstanding slot, the master is held, and the bus is released
// while the slave processes.
func (b *Bus) splitRequest(col *stats.Collector, i int, c int64) {
	m := b.masters[i]
	msg := m.queue.front()
	col.ControlCycle(i)
	m.outBuf = *msg
	m.outstanding = &m.outBuf
	m.respReady = c + int64(b.slaves[msg.slave].splitLatency)
	m.splitIssued = c
	if b.fm != nil && b.fm.SplitHang(c, i, msg.slave) {
		// The slave drops the request: the response never becomes
		// ready and only the watchdog can free this master.
		m.respReady = never
	}
	b.held.Set(i)
	b.popHead(i)
	b.cur = nil
}

// retire frees the burst's message, from the outstanding slot or the
// queue head, resets its master's retry count and ends the burst.
func (b *Bus) retire(cur *burst) {
	m := b.masters[cur.master]
	if cur.fromOutstanding {
		m.outstanding = nil
	} else {
		b.popHead(cur.master)
	}
	m.retries = 0
	b.cur = nil
}

// faultBeat consumes the active burst's data beat at b.cycle as faulted.
// A slave error termination (term) kills the burst and the retry
// machinery decides the message's fate; a transient corruption counts
// the beat against the grant budget (bounding grant length under
// faults) but the word must be resent, so remaining is untouched.
func (b *Bus) faultBeat(col *stats.Collector, cur *burst, m *Master, slave int, term bool) {
	col.ErrorWord(cur.master)
	if term {
		b.failBurst(col, cur, m)
		return
	}
	cur.done++
	if cur.done == cur.words {
		b.cur = nil
		return
	}
	if len(b.slaves) > 0 {
		cur.waitLeft = b.slaves[slave].waitStates
	}
}

// failBurst terminates the active burst after a slave error response.
// Within the retry budget the message keeps its queue position (or its
// outstanding slot) and the master backs off linearly before
// re-contending; past the budget the message is abandoned.
func (b *Bus) failBurst(col *stats.Collector, cur *burst, m *Master) {
	mi := cur.master
	m.retries++
	if m.retries > b.cfg.RetryLimit {
		col.Abort(mi)
		if cur.fromOutstanding {
			m.lostWords += int64(m.outstanding.remaining)
		} else {
			m.lostWords += int64(m.queue.front().remaining)
		}
		b.retire(cur)
		return
	}
	col.Retry(mi)
	m.backoffUntil = b.cycle + 1 + int64(b.cfg.RetryBackoff*m.retries)
	b.held.Set(mi)
	b.cur = nil
}

// requestView adapts Bus to the Requests interface without allocation.
type requestView struct{ b *Bus }

func (v *requestView) NumMasters() int { return len(v.b.masters) }

func (v *requestView) Pending(i int) bool { return requesting(v.b.requests(), i) }

// Mask returns the request map the cycle loop loaded for this cycle (the
// common case during arbitration), loading it first otherwise.
func (v *requestView) Mask() core.Bitset { return *v.b.requests() }

func (v *requestView) PendingWords(i int) int {
	if !v.Pending(i) {
		return 0
	}
	m := v.b.masters[i]
	if m.outstanding != nil {
		return m.outstanding.remaining
	}
	return m.queue.front().remaining
}

func (v *requestView) Tickets(i int) uint64 { return v.b.masters[i].tickets }
