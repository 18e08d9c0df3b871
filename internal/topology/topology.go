// Package topology composes multiple shared buses into hierarchical
// communication architectures connected by bridges (paper §2: "When the
// topology consists of multiple channels, bridges are employed to
// interconnect the necessary channels", §2.3 hierarchical bus
// architectures). The LOTTERYBUS architecture "does not presume any
// fixed topology of communication channels" (§4.1); this package lets
// the lottery — or any other arbiter — run per channel.
package topology

import (
	"fmt"

	"lotterybus/internal/bus"
)

// System is a set of buses advanced together, with bridges forwarding
// completed transactions between them. Each bus keeps its own schedule:
// buses nothing couples run to completion, bridged buses advance in
// lock-step among themselves (see Run).
type System struct {
	buses   []*bus.Bus
	names   []string
	bridges []*Bridge
	cycle   int64
}

// NewSystem returns an empty multi-bus system.
func NewSystem() *System { return &System{} }

// AddBus registers a bus under a name and returns its index.
func (s *System) AddBus(name string, b *bus.Bus) int {
	s.buses = append(s.buses, b)
	s.names = append(s.names, name)
	return len(s.buses) - 1
}

// Bus returns the i-th bus.
func (s *System) Bus(i int) *bus.Bus { return s.buses[i] }

// BusName returns the i-th bus's registered name.
func (s *System) BusName(i int) string { return s.names[i] }

// NumBuses returns the bus count.
func (s *System) NumBuses() int { return len(s.buses) }

// Bridges returns every bridge installed by Connect, in installation
// order, so audits can walk the fabric's word ledgers.
func (s *System) Bridges() []*Bridge { return s.bridges }

// Bridge forwards transactions completed against a designated slave on
// the source bus onto a master of the destination bus, after a fixed
// forwarding delay — a store-and-forward bridge with an internal FIFO.
type Bridge struct {
	name string

	src       *bus.Bus
	srcSlave  int
	dst       *bus.Bus
	dstMaster int
	dstSlave  int
	delay     int64
	fifoCap   int

	// waiting holds transactions that completed on the source bus and
	// are serving their forwarding delay before injection downstream.
	waiting []pendingXfer
	// inFlight tracks messages currently queued or transferring on the
	// destination bus, in FIFO order (readyAt is unused there).
	inFlight []pendingXfer

	forwarded   int64
	dropped     int64
	e2eLatency  int64
	e2eMessages int64

	// Word-conservation ledger: every word accepted into the bridge FIFO
	// is eventually injected downstream, still waiting, or dropped at
	// injection — wordsIn == wordsOut + wordsWaiting + wordsDropped at
	// every cycle boundary. check.AuditSystem re-proves this per bridge.
	wordsIn      int64 // accepted from the source bus
	wordsOut     int64 // injected into the destination bus
	wordsWaiting int64 // accepted, still serving the forwarding delay
	wordsDropped int64 // accepted, then refused by the destination queue
}

type pendingXfer struct {
	readyAt int64
	words   int
	arrival int64 // original arrival at the source-bus master
}

// BridgeConfig describes one bridge.
type BridgeConfig struct {
	// Name labels the bridge.
	Name string
	// SrcSlave is the slave index on the source bus that addresses the
	// bridge.
	SrcSlave int
	// DstMaster is the bridge's master index on the destination bus
	// (add a nil-generator master for it).
	DstMaster int
	// DstSlave is the slave the forwarded transaction targets on the
	// destination bus; it must exist there.
	DstSlave int
	// Delay is the store-and-forward latency in cycles (>= 0).
	Delay int64
	// FifoCap bounds the bridge FIFO in messages; 0 selects 64 and a
	// negative cap is rejected.
	FifoCap int
}

// Connect installs a bridge from src to dst. The destination master must
// already exist on dst (with no generator of its own).
func (s *System) Connect(src, dst int, cfg BridgeConfig) (*Bridge, error) {
	if src < 0 || src >= len(s.buses) || dst < 0 || dst >= len(s.buses) {
		return nil, fmt.Errorf("topology: bus index out of range")
	}
	if src == dst {
		return nil, fmt.Errorf("topology: bridge must connect distinct buses")
	}
	sb, db := s.buses[src], s.buses[dst]
	if cfg.DstMaster < 0 || cfg.DstMaster >= db.NumMasters() {
		return nil, fmt.Errorf("topology: bridge master %d not on destination bus", cfg.DstMaster)
	}
	if cfg.SrcSlave < 0 || cfg.SrcSlave >= sb.NumSlaves() {
		return nil, fmt.Errorf("topology: bridge slave %d not on source bus", cfg.SrcSlave)
	}
	if cfg.DstSlave < 0 || cfg.DstSlave >= db.NumSlaves() {
		return nil, fmt.Errorf("topology: bridge target slave %d not on destination bus", cfg.DstSlave)
	}
	if cfg.Delay < 0 {
		return nil, fmt.Errorf("topology: negative bridge delay")
	}
	if cfg.FifoCap < 0 {
		return nil, fmt.Errorf("topology: negative bridge FIFO capacity %d", cfg.FifoCap)
	}
	if cfg.FifoCap == 0 {
		cfg.FifoCap = 64
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("bridge-%s-%s", s.names[src], s.names[dst])
	}
	br := &Bridge{
		name:      name,
		src:       sb,
		srcSlave:  cfg.SrcSlave,
		dst:       db,
		dstMaster: cfg.DstMaster,
		dstSlave:  cfg.DstSlave,
		delay:     cfg.Delay,
		fifoCap:   cfg.FifoCap,
	}
	s.bridges = append(s.bridges, br)

	prevSrcHook := sb.OnMessageComplete
	sb.OnMessageComplete = func(master, words, slave int, arrival, completion int64) {
		if prevSrcHook != nil {
			prevSrcHook(master, words, slave, arrival, completion)
		}
		if slave != br.srcSlave {
			return
		}
		if len(br.waiting)+len(br.inFlight) >= br.fifoCap {
			br.dropped++
			return
		}
		br.waiting = append(br.waiting, pendingXfer{
			readyAt: completion + br.delay,
			words:   words,
			arrival: arrival,
		})
		br.wordsIn += int64(words)
		br.wordsWaiting += int64(words)
	}

	prevDstHook := db.OnMessageComplete
	db.OnMessageComplete = func(master, words, slave int, arrival, completion int64) {
		if prevDstHook != nil {
			prevDstHook(master, words, slave, arrival, completion)
		}
		if master != br.dstMaster || len(br.inFlight) == 0 {
			return
		}
		p := br.inFlight[0]
		br.inFlight = br.inFlight[1:]
		br.e2eLatency += completion - p.arrival + 1
		br.e2eMessages++
		br.forwarded++
	}
	return br, nil
}

// drain injects transactions whose forwarding delay has elapsed.
func (b *Bridge) drain(cycle int64) {
	for len(b.waiting) > 0 && b.waiting[0].readyAt <= cycle {
		p := b.waiting[0]
		b.waiting = b.waiting[1:]
		b.wordsWaiting -= int64(p.words)
		if !b.dst.Inject(b.dstMaster, p.words, b.dstSlave) {
			b.dropped++
			b.wordsDropped += int64(p.words)
			continue
		}
		b.wordsOut += int64(p.words)
		b.inFlight = append(b.inFlight, p)
	}
}

// Name returns the bridge label.
func (b *Bridge) Name() string { return b.name }

// Forwarded returns the number of messages fully delivered downstream.
func (b *Bridge) Forwarded() int64 { return b.forwarded }

// Dropped returns messages lost to bridge FIFO overflow.
func (b *Bridge) Dropped() int64 { return b.dropped }

// AvgEndToEndLatency returns the mean cycles from the message's arrival
// at its source-bus master to its completion on the destination bus.
func (b *Bridge) AvgEndToEndLatency() float64 {
	if b.e2eMessages == 0 {
		return 0
	}
	return float64(b.e2eLatency) / float64(b.e2eMessages)
}

// Queued returns the bridge FIFO occupancy (waiting plus in flight).
func (b *Bridge) Queued() int { return len(b.waiting) + len(b.inFlight) }

// BridgeStats is a snapshot of every counter a bridge accumulates.
// Before it existed only Forwarded/Dropped/AvgEndToEndLatency were
// reachable and the raw end-to-end sums were private, so reports and
// observability could not aggregate bridge traffic across replicas.
type BridgeStats struct {
	// Forwarded counts messages fully delivered on the destination bus.
	Forwarded int64
	// Dropped counts messages lost to FIFO overflow — at the source-bus
	// completion hook when the FIFO is full, or at injection when the
	// destination master's queue refuses the message.
	Dropped int64
	// E2EMessages and E2ELatencySum are the raw accumulators behind
	// AvgEndToEndLatency (sum of completion − source arrival + 1, in
	// cycles); keeping them raw lets replicas merge before dividing.
	E2EMessages   int64
	E2ELatencySum int64
	// Queued is the FIFO occupancy (waiting plus in flight) at snapshot
	// time.
	Queued int
	// WordsIn counts words accepted into the bridge FIFO from the
	// source bus; WordsOut counts words injected into the destination
	// bus; WordsWaiting counts accepted words still serving the
	// forwarding delay; WordsDropped counts accepted words the
	// destination queue later refused. Conservation holds at every cycle
	// boundary: WordsIn == WordsOut + WordsWaiting + WordsDropped.
	WordsIn      int64
	WordsOut     int64
	WordsWaiting int64
	WordsDropped int64
}

// Stats returns a snapshot of the bridge's counters.
func (b *Bridge) Stats() BridgeStats {
	return BridgeStats{
		Forwarded:     b.forwarded,
		Dropped:       b.dropped,
		E2EMessages:   b.e2eMessages,
		E2ELatencySum: b.e2eLatency,
		Queued:        b.Queued(),
		WordsIn:       b.wordsIn,
		WordsOut:      b.wordsOut,
		WordsWaiting:  b.wordsWaiting,
		WordsDropped:  b.wordsDropped,
	}
}

// CheckConservation verifies the bridge's word ledger: every word
// accepted from the source bus is injected downstream, still waiting,
// or dropped at injection. A nonzero residue means the bridge is
// inventing or losing words between segments.
func (b *Bridge) CheckConservation() error {
	if residue := b.wordsIn - b.wordsOut - b.wordsWaiting - b.wordsDropped; residue != 0 {
		return fmt.Errorf("topology: bridge %s word ledger off by %d (in %d, out %d, waiting %d, dropped %d)",
			b.name, residue, b.wordsIn, b.wordsOut, b.wordsWaiting, b.wordsDropped)
	}
	return nil
}

// Run advances the system n cycles; n <= 0 is a no-op. Each bus is
// scheduled by the hooks it carries, the only channels through which one
// bus can observe another:
//
//   - A bus with no OnCycle, OnOwner or OnMessageComplete hook is
//     observed by nothing, so it runs to completion with one bus.Run(n)
//     — eligible for the fast-forward engine, which skips dead cycles.
//   - Buses coupled by bridges (Connect installs OnMessageComplete on
//     both ends) advance in lock-step among themselves: every cycle
//     drains every bridge, then runs each such bus one cycle in index
//     order. An OnMessageComplete hook must observe only buses in this
//     set.
//   - If any bus carries OnCycle or OnOwner, hooks that may read sibling
//     buses, every bus runs in that lock-step, so what those hooks see is
//     unchanged.
//
// Per-bus results are identical to whole-system lock-step whenever buses
// share no mutable state outside their hooks (a generator or PRNG source
// attached to two buses would be drawn in a different order). When Run
// returns nil, every bus and Cycle() have advanced by exactly n.
func (s *System) Run(n int64) error {
	if len(s.buses) == 0 {
		return fmt.Errorf("topology: no buses")
	}
	if n <= 0 {
		return nil
	}
	observed := false
	for _, b := range s.buses {
		if b.OnCycle != nil || b.OnOwner != nil {
			observed = true
			break
		}
	}
	var lockstep []int
	for i, b := range s.buses {
		if observed || b.OnMessageComplete != nil {
			lockstep = append(lockstep, i)
		} else if err := b.Run(n); err != nil {
			return fmt.Errorf("topology: bus %s: %w", s.names[i], err)
		}
	}
	for k := int64(0); k < n && len(lockstep) > 0; k++ {
		for _, br := range s.bridges {
			br.drain(s.cycle + k)
		}
		for _, i := range lockstep {
			if err := s.buses[i].Run(1); err != nil {
				return fmt.Errorf("topology: bus %s: %w", s.names[i], err)
			}
		}
	}
	s.cycle += n
	return nil
}

// Cycle returns the system cycle: how far every bus has advanced.
func (s *System) Cycle() int64 { return s.cycle }
