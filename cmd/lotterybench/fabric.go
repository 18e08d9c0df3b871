package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/check"
	"lotterybus/internal/core"
	"lotterybus/internal/expt"
	"lotterybus/internal/obs"
	"lotterybus/internal/prng"
	"lotterybus/internal/topology"
	"lotterybus/internal/traffic"
)

// chainSegments is the bridged chain's length; segments 1..3 each take
// the previous segment's bridge traffic on master 0.
const chainSegments = 4

// newChain builds a 4-segment bridged chain. Every segment has 8 local
// masters offering 0.1 words/cycle of 8-word messages, half to local
// memory (slave 0) and half to the outgoing bridge (slave 1), under its
// own static lottery.
func newChain(seed uint64) (*topology.System, []*topology.Bridge, error) {
	segs := make([]topology.ChainSegment, chainSegments)
	links := make([]topology.BridgeConfig, chainSegments-1)
	for s := range segs {
		name := fmt.Sprintf("seg%d", s)
		b := bus.New(bus.Config{MaxBurst: 16})
		var tickets []uint64
		if s > 0 {
			b.AddMaster("bridge-in", nil, bus.MasterOpts{Tickets: 4})
			tickets = append(tickets, 4)
			links[s-1] = topology.BridgeConfig{SrcSlave: 1, DstMaster: 0, DstSlave: 0, Delay: 4, FifoCap: 32}
		}
		for m := 0; m < 8; m++ {
			gen, err := traffic.NewBernoulli(0.1, traffic.Fixed(8), m%2,
				prng.Derive(seed, fmt.Sprintf("chain/%s/m%d", name, m)))
			if err != nil {
				return nil, nil, err
			}
			b.AddMaster(fmt.Sprintf("%s-m%d", name, m), gen, bus.MasterOpts{Tickets: uint64(m%4) + 1})
			tickets = append(tickets, uint64(m%4)+1)
		}
		b.AddSlave("local-mem", bus.SlaveOpts{})
		b.AddSlave("bridge-out", bus.SlaveOpts{})
		mgr, err := core.NewStaticLottery(core.StaticConfig{
			Tickets: tickets,
			Source:  prng.NewXorShift64Star(prng.Derive(seed, "chain/"+name+"/arb")),
		})
		if err != nil {
			return nil, nil, err
		}
		b.SetArbiter(arb.NewStaticLottery(mgr))
		segs[s] = topology.ChainSegment{Name: name, Bus: b}
	}
	return topology.NewChain(segs, links)
}

// fabricBench runs the fabrics in lock-step: one operation is a serial
// cmp64 run plus a bridged-chain run.
type fabricBench struct {
	cmp        expt.Options
	chainSeed  uint64
	chainCyc   int64
	mu         sync.Mutex
	digests    map[int]string
	violations []string
}

func setupFabric(e *env) (*instance, error) {
	f := &fabricBench{
		cmp:       expt.Options{Cycles: e.sz.cmpCycles, Seed: prng.Derive(e.seed, "fabric/cmp64"), Parallel: 1},
		chainSeed: prng.Derive(e.seed, "fabric/chain"),
		chainCyc:  e.sz.chainCycles,
		digests:   map[int]string{},
	}
	warm := &fabricBench{cmp: f.cmp, chainSeed: f.chainSeed, chainCyc: f.chainCyc / e.sz.warmupDiv}
	warm.cmp.Cycles /= e.sz.warmupDiv
	if _, _, err := warm.pass(nil, nil); err != nil {
		return nil, err
	}
	ports := int64(5) // cmp64: four memory ports and the directory port
	return &instance{
		clients:   1,
		minOps:    e.sz.minPasses,
		opSpan:    "fabric.pass",
		op:        f.op,
		check:     f.check,
		simCycles: ports*f.cmp.Cycles + chainSegments*f.chainCyc,
		close:     func() {},
	}, nil
}

// pass runs cmp64 serially and the chain in lock-step, returning the
// digest of every segment fingerprint and bridge ledger, and every audit
// violation.
func (f *fabricBench) pass(tr *obs.Trace, parent *obs.Span) (string, []string, error) {
	sp := tr.Start("expt.cmp64_serial", parent)
	r, err := expt.RunCMP64(f.cmp)
	sp.End()
	if err != nil {
		return "", nil, err
	}
	var viol []string
	for _, v := range r.Violations {
		viol = append(viol, "cmp64: "+v.String())
	}
	sp = tr.Start("topology.chain_build", parent)
	sys, bridges, err := newChain(f.chainSeed)
	sp.End()
	if err != nil {
		return "", nil, err
	}
	sp = tr.Start("topology.chain_run", parent)
	err = sys.Run(f.chainCyc)
	sp.End()
	if err != nil {
		return "", nil, err
	}
	sp = tr.Start("check.audit", parent)
	for _, v := range check.AuditSystem(sys) { // bridge word conservation included
		viol = append(viol, "chain: "+v.String())
	}
	sp.End()

	var b bytes.Buffer
	fmt.Fprintf(&b, "cmp64 %016x\n", r.Fingerprint)
	for s := 0; s < sys.NumBuses(); s++ {
		fmt.Fprintf(&b, "%s %016x\n", sys.BusName(s), sys.Bus(s).Collector().Fingerprint())
	}
	for _, br := range bridges {
		st := br.Stats()
		if st.WordsIn == 0 {
			viol = append(viol, "chain: bridge "+br.Name()+" carried no words")
		}
		fmt.Fprintf(&b, "%s %+v\n", br.Name(), st)
	}
	return digestOf(b.Bytes()), viol, nil
}

func (f *fabricBench) op(_, i int, tr *obs.Trace, parent *obs.Span) (time.Duration, error) {
	t0 := obs.Now()
	d, viol, err := f.pass(tr, parent)
	lat := obs.Now().Sub(t0)
	if err != nil {
		return lat, err
	}
	f.mu.Lock()
	f.digests[i] = d
	f.violations = append(f.violations, viol...)
	f.mu.Unlock()
	return lat, nil
}

// check requires identical fabrics on every pass and clean cmp64 and
// chain audits, bridge word conservation included.
func (f *fabricBench) check(n int) (string, []int, error) {
	digest, bad, err := sameDigest(f.digests, n)
	if err == nil && len(f.violations) > 0 {
		err = fmt.Errorf("%d audit violations: %s", len(f.violations), strings.Join(f.violations, "; "))
	}
	return digest, bad, err
}

// cmp64Crossbar builds the cmp64 experiment's fabric from the public
// topology API — 64 cores over four memory ports and a shared directory
// port, the same shape and loads as expt.RunCMP64 — so the layer ladder
// can time its lock-step and per-port schedules apart from set-up and
// audit.
func cmp64Crossbar(seed uint64) (*topology.Crossbar, error) {
	const cores, memPorts = 64, 4
	ports := []string{"mem0", "mem1", "mem2", "mem3", "dir"}
	masters := make([]topology.CrossbarMaster, 0, cores)
	for i := 0; i < cores; i++ {
		memGen, err := traffic.NewBernoulli(0.06, traffic.Fixed(8), 0, prng.Derive(seed, fmt.Sprintf("cmp64/core%d/mem", i)))
		if err != nil {
			return nil, err
		}
		dirGen, err := traffic.NewBernoulli(0.012, traffic.Fixed(2), 0, prng.Derive(seed, fmt.Sprintf("cmp64/core%d/dir", i)))
		if err != nil {
			return nil, err
		}
		masters = append(masters, topology.CrossbarMaster{
			Name:    fmt.Sprintf("core%d", i),
			Tickets: uint64(i%4) + 1,
			Traffic: map[int]topology.Generator{i / (cores / memPorts): memGen, memPorts: dirGen},
		})
	}
	return topology.NewCrossbar(topology.CrossbarConfig{
		Ports: ports, Masters: masters, MaxBurst: 16, Seed: prng.Derive(seed, "cmp64/fabric"),
	})
}
