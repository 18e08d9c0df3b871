package topology

import (
	"fmt"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/core"
	"lotterybus/internal/prng"
)

// Hierarchical fabrics beyond the single bridge pair: linear chains of
// N bridged segments and a partial-crossbar interconnect with an
// independent lottery per output port. Both compose the existing
// System, so every segment keeps its own stats ledger
// (bus.Collector) and every inter-segment link keeps the bridge word
// ledger — check.AuditSystem re-proves conservation per segment and per
// link, exactly as the single-bus audits do.

// Generator aliases the bus traffic-generator interface, so fabric
// builders can be configured without importing internal/bus directly.
type Generator = bus.Generator

// ChainSegment names one segment of a linear multi-segment fabric.
type ChainSegment struct {
	// Name labels the segment in audits and reports.
	Name string
	// Bus is the fully built segment (masters, slaves, arbiter).
	Bus *bus.Bus
}

// NewChain composes segments into a linear hierarchical fabric:
// links[i] bridges segment i into segment i+1, generalizing the
// two-bus Connect call to N segments (paper §2.3: hierarchical bus
// architectures chain channels through bridges). It returns the
// system and the installed bridges in chain order; the bridges couple
// every segment, so System.Run steps the chain in lock-step.
func NewChain(segments []ChainSegment, links []BridgeConfig) (*System, []*Bridge, error) {
	if len(segments) < 2 {
		return nil, nil, fmt.Errorf("topology: chain needs at least 2 segments, got %d", len(segments))
	}
	if len(links) != len(segments)-1 {
		return nil, nil, fmt.Errorf("topology: chain of %d segments needs %d links, got %d",
			len(segments), len(segments)-1, len(links))
	}
	sys := NewSystem()
	for i, seg := range segments {
		if seg.Bus == nil {
			return nil, nil, fmt.Errorf("topology: chain segment %d has no bus", i)
		}
		name := seg.Name
		if name == "" {
			name = fmt.Sprintf("seg%d", i)
		}
		sys.AddBus(name, seg.Bus)
	}
	bridges := make([]*Bridge, 0, len(links))
	for i, link := range links {
		br, err := sys.Connect(i, i+1, link)
		if err != nil {
			return nil, nil, fmt.Errorf("topology: chain link %d: %w", i, err)
		}
		bridges = append(bridges, br)
	}
	return sys, bridges, nil
}

// CrossbarMaster describes one input of a partial crossbar. A master
// keeps one virtual output queue per reachable port (the standard VOQ
// input organization), so its traffic toward different ports never
// head-of-line blocks.
type CrossbarMaster struct {
	// Name labels the master on every port it reaches.
	Name string
	// Tickets is the master's lottery holding, applied identically at
	// each reachable port's arbiter.
	Tickets uint64
	// Traffic maps reachable output-port indices to the generator
	// driving this master's VOQ for that port; ports absent from the
	// map are not wired (the "partial" in partial crossbar). A nil
	// generator wires the port for Inject-fed traffic only.
	Traffic map[int]bus.Generator
}

// CrossbarConfig describes a partial-crossbar fabric.
type CrossbarConfig struct {
	// Ports names the output ports. Each port owns one terminal slave
	// (its resource — a memory controller, a bridge, ...) and one
	// independent lottery arbiter over the masters wired to it.
	Ports []string
	// Masters are the inputs.
	Masters []CrossbarMaster
	// MaxBurst and ArbLatency configure every port bus (zero keeps the
	// bus defaults).
	MaxBurst   int
	ArbLatency int
	// Seed derives each port's independent lottery stream; zero
	// selects 1.
	Seed uint64
}

// Crossbar is a partial-crossbar interconnect: each output port is an
// independent arbitration domain (its own lottery, its own stats
// ledger) and nothing couples the ports. Masters appear on every port
// they are wired to; unwired (master, port) pairs simply do not exist,
// which is what distinguishes a partial crossbar from a full one.
type Crossbar struct {
	sys   *System
	wired [][]int // wired[p] = config master indices on port p, ascending
}

// NewCrossbar builds the fabric: one bus per output port, each with the
// wired masters (in global master order), a single terminal slave, and
// an independent static lottery over the wired masters' tickets seeded
// from prng.Derive(seed, "xbar/<port>").
func NewCrossbar(cfg CrossbarConfig) (*Crossbar, error) {
	if len(cfg.Ports) == 0 {
		return nil, fmt.Errorf("topology: crossbar needs at least one port")
	}
	if len(cfg.Masters) == 0 {
		return nil, fmt.Errorf("topology: crossbar needs at least one master")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	x := &Crossbar{sys: NewSystem(), wired: make([][]int, len(cfg.Ports))}
	for mi, m := range cfg.Masters {
		if len(m.Traffic) == 0 {
			return nil, fmt.Errorf("topology: crossbar master %q reaches no port", m.Name)
		}
		for p := range m.Traffic {
			if p < 0 || p >= len(cfg.Ports) {
				return nil, fmt.Errorf("topology: crossbar master %q wired to unknown port %d", m.Name, p)
			}
			x.wired[p] = append(x.wired[p], mi)
		}
	}
	for p, name := range cfg.Ports {
		masters := x.wired[p]
		if len(masters) == 0 {
			return nil, fmt.Errorf("topology: crossbar port %q has no wired master", name)
		}
		if len(masters) > core.MaxMasters {
			return nil, fmt.Errorf("topology: crossbar port %q has %d masters, exceeds core.MaxMasters (%d)",
				name, len(masters), core.MaxMasters)
		}
		// wired[p] is ascending by construction: the fill loop walks
		// cfg.Masters in order and appends each index at most once per
		// port, so map iteration order never reaches the lists.
		b := bus.New(bus.Config{MaxBurst: cfg.MaxBurst, ArbLatency: cfg.ArbLatency})
		tickets := make([]uint64, 0, len(masters))
		for _, mi := range masters {
			m := cfg.Masters[mi]
			tk := m.Tickets
			if tk == 0 {
				tk = 1
			}
			b.AddMaster(m.Name, m.Traffic[p], bus.MasterOpts{Tickets: tk})
			tickets = append(tickets, tk)
		}
		b.AddSlave(name, bus.SlaveOpts{})
		mgr, err := core.NewStaticLottery(core.StaticConfig{
			Tickets: tickets,
			Source:  prng.NewXorShift64Star(prng.Derive(seed, "xbar/"+name)),
		})
		if err != nil {
			return nil, fmt.Errorf("topology: crossbar port %q lottery: %w", name, err)
		}
		b.SetArbiter(arb.NewStaticLottery(mgr))
		x.sys.AddBus(name, b)
	}
	return x, nil
}

// System returns the underlying system (one bus per port),
// for audits and bridging a port into a further fabric level.
func (x *Crossbar) System() *System { return x.sys }

// NumPorts returns the output-port count.
func (x *Crossbar) NumPorts() int { return x.sys.NumBuses() }

// Port returns output port p's bus — its arbitration domain and stats
// ledger.
func (x *Crossbar) Port(p int) *bus.Bus { return x.sys.Bus(p) }

// PortName returns output port p's name.
func (x *Crossbar) PortName(p int) string { return x.sys.BusName(p) }

// Wired returns the config master indices wired to port p, in the
// order they appear as the port bus's masters.
func (x *Crossbar) Wired(p int) []int { return x.wired[p] }

// Run advances every port n cycles through System.Run. Ports carry no
// bridges, so unless a caller has attached an OnCycle or OnOwner hook,
// each port runs to completion on its own, fast-forward engine
// included.
func (x *Crossbar) Run(n int64) error { return x.sys.Run(n) }
