package expt

import (
	"fmt"

	"lotterybus/internal/check"
	"lotterybus/internal/prng"
	"lotterybus/internal/runner"
	"lotterybus/internal/stats"
	"lotterybus/internal/topology"
	"lotterybus/internal/traffic"
)

// The cmp64 experiment: a 64-core CMP using the bus as its NoC (the
// shape of sesc's cmp64-noc.conf — 64 two-issue cores, 64-byte cache
// lines, one shared interconnect), mapped onto the partial-crossbar
// fabric. Each core is homed to one of four memory ports (16 cores
// per port, 8-word line refills) and every core also reaches a shared
// directory port — a full 64-master arbitration domain, the widest a
// single mask word can carry, arbitrated by its own lottery. Cores
// carry one of four QoS classes (tickets 1..4, core i in class i mod
// 4), so each port's lottery shapes bandwidth by class exactly as on
// the paper's four-master bus, just 16× wider.

// cmp64Cores, cmp64MemPorts and the traffic constants pin the fabric
// shape: 64 cores over 4 memory ports plus one shared directory port.
const (
	cmp64Cores    = 64
	cmp64MemPorts = 4
	// cmp64LineWords is the 64-byte cache line in 8-byte words.
	cmp64LineWords = 8
	// cmp64MemLoad is each core's refill load toward its home memory
	// port (words/cycle): 16 homed cores offer an aggregate 0.96, a
	// busy but unsaturated controller.
	cmp64MemLoad = 0.06
	// cmp64DirWords and cmp64DirLoad shape the coherence traffic every
	// core offers the shared directory port.
	cmp64DirWords = 2
	cmp64DirLoad  = 0.012
)

// CMP64Result is the outcome of the 64-core CMP fabric run.
type CMP64Result struct {
	// PortNames lists the fabric's output ports: mem0..mem3, dir.
	PortNames []string
	// PortUtil is each port's data-cycle utilization.
	PortUtil []float64
	// PortWords is each port's total transferred words.
	PortWords []int64
	// DirClassShare is the directory port's bandwidth split by QoS
	// class (tickets 1..4): class c's fraction of the port's words.
	DirClassShare []float64
	// Violations are the per-segment invariant audit failures across
	// all ports (empty on a consistent run).
	Violations []check.Violation
	// Fingerprint folds every port collector fingerprint in port order;
	// it is identical for serial and parallel runs and pinned by the CI
	// smoke test.
	Fingerprint uint64
}

// Table renders the outcome.
func (r *CMP64Result) Table() *stats.Table {
	t := stats.NewTable("64-core CMP over a partial crossbar (4 memory ports + shared directory)",
		"quantity", "value")
	for i, name := range r.PortNames {
		t.AddRow(fmt.Sprintf("port %s utilization", name), fmt.Sprintf("%.3f", r.PortUtil[i]))
		t.AddRow(fmt.Sprintf("port %s words", name), fmt.Sprintf("%d", r.PortWords[i]))
	}
	for c, s := range r.DirClassShare {
		t.AddRow(fmt.Sprintf("dir port class %d (tickets %d) bw%%", c, c+1), fmt.Sprintf("%.1f", 100*s))
	}
	t.AddRow("audit violations", fmt.Sprintf("%d", len(r.Violations)))
	t.AddRow("fabric fingerprint", fmt.Sprintf("%#016x", r.Fingerprint))
	return t
}

// cmp64Fabric builds the fabric for the given options.
func cmp64Fabric(o Options) (*topology.Crossbar, error) {
	ports := make([]string, 0, cmp64MemPorts+1)
	for p := 0; p < cmp64MemPorts; p++ {
		ports = append(ports, fmt.Sprintf("mem%d", p))
	}
	dirPort := len(ports)
	ports = append(ports, "dir")

	masters := make([]topology.CrossbarMaster, 0, cmp64Cores)
	for i := 0; i < cmp64Cores; i++ {
		home := i / (cmp64Cores / cmp64MemPorts)
		memGen, err := traffic.NewBernoulli(cmp64MemLoad, traffic.Fixed(cmp64LineWords), 0,
			prng.Derive(o.Seed, fmt.Sprintf("cmp64/core%d/mem", i)))
		if err != nil {
			return nil, err
		}
		dirGen, err := traffic.NewBernoulli(cmp64DirLoad, traffic.Fixed(cmp64DirWords), 0,
			prng.Derive(o.Seed, fmt.Sprintf("cmp64/core%d/dir", i)))
		if err != nil {
			return nil, err
		}
		masters = append(masters, topology.CrossbarMaster{
			Name:    fmt.Sprintf("core%d", i),
			Tickets: uint64(i%4) + 1,
			Traffic: map[int]topology.Generator{home: memGen, dirPort: dirGen},
		})
	}
	return topology.NewCrossbar(topology.CrossbarConfig{
		Ports:    ports,
		Masters:  masters,
		MaxBurst: 16,
		Seed:     prng.Derive(o.Seed, "cmp64/fabric"),
	})
}

// RunCMP64 runs the experiment. Serially, System.Run runs each port to
// completion in turn (no bridge or hook couples them); with Parallel > 1
// the ports run concurrently, one port bus per worker. Both are
// bit-identical to a whole-fabric lock-step run, and the composed
// fingerprint proves it.
func RunCMP64(o Options) (*CMP64Result, error) {
	o = o.fill()
	x, err := cmp64Fabric(o)
	if err != nil {
		return nil, err
	}
	if o.workers() > 1 {
		// The crossbar has no bridges or hooks, so ports share no state
		// and each can run to completion on its own worker.
		if _, err := runner.Map(o.workers(), x.NumPorts(), func(p int) (struct{}, error) {
			return struct{}{}, x.Port(p).Run(o.Cycles)
		}); err != nil {
			return nil, err
		}
	} else if err := x.Run(o.Cycles); err != nil {
		return nil, err
	}

	res := &CMP64Result{Fingerprint: fnvOffset}
	for p := 0; p < x.NumPorts(); p++ {
		col := x.Port(p).Collector()
		var words int64
		for m := 0; m < col.N(); m++ {
			words += col.Words(m)
		}
		util := 0.0
		if col.Cycles() > 0 {
			util = float64(col.BusyCycles()) / float64(col.Cycles())
		}
		res.PortNames = append(res.PortNames, x.PortName(p))
		res.PortUtil = append(res.PortUtil, util)
		res.PortWords = append(res.PortWords, words)
		res.Fingerprint = fnvMix(res.Fingerprint, col.Fingerprint())
	}

	// Directory-port bandwidth split by QoS class: the port's masters
	// are all 64 cores in core order, so core i's class is i mod 4.
	dir := x.NumPorts() - 1
	dirCol := x.Port(dir).Collector()
	classWords := make([]int64, 4)
	var dirWords int64
	for m := 0; m < dirCol.N(); m++ {
		core := x.Wired(dir)[m]
		classWords[core%4] += dirCol.Words(m)
		dirWords += dirCol.Words(m)
	}
	res.DirClassShare = make([]float64, 4)
	if dirWords > 0 {
		for c := range classWords {
			res.DirClassShare[c] = float64(classWords[c]) / float64(dirWords)
		}
	}

	res.Violations = check.AuditCrossbar(x)
	return res, nil
}

// fnvOffset and fnvMix mirror the collector's fingerprint scheme so the
// fabric fingerprint composes port fingerprints the same way the
// equivalence matrix composes cell fingerprints.
const fnvOffset = 14695981039346656037

func fnvMix(h, v uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}
