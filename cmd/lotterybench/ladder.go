package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"lotterybus"
	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/cache"
	"lotterybus/internal/check"
	"lotterybus/internal/core"
	"lotterybus/internal/obs"
	"lotterybus/internal/prng"
	"lotterybus/internal/serve"
	"lotterybus/internal/simcfg"
	"lotterybus/internal/stats"
	"lotterybus/internal/traffic"
)

// The layer ladder times each layer by direct calls on small fixed
// inputs, bottom up: PRNG, lottery draw, bus cycle, lane engine, fabric
// schedules, audit, then the job path's parse, canonicalize, build,
// report, snapshot codec and cache. Every traced run measures the same
// ladder, so each workload's per-layer record is complete; the
// workload's own spans (printed before it) show which layers its
// operations spent their time in.

// layerMetric is one rung of the ladder.
type layerMetric struct {
	name  string
	value float64
	unit  string
	count int64
}

type ladder struct {
	tr     *obs.Trace
	parent *obs.Span
	div    int64
	seed   uint64
	tmp    string
	out    []layerMetric
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// n scales a probe's full-size count down by the ladder divisor.
func (l *ladder) n(full int64) int64 { return max(full/l.div, 1) }

// probe runs fn, which does count units of work, inside a span named
// after the metric, and records the time per unit in unit ("ns", "us",
// "ms").
func (l *ladder) probe(name, unit string, count int64, fn func() error) error {
	scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit]
	sp := l.tr.Start(name, l.parent)
	t0 := obs.Now()
	err := fn()
	d := obs.Now().Sub(t0)
	sp.Arg("count", count).End()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	l.out = append(l.out, layerMetric{name, float64(d.Nanoseconds()) / float64(count) / scale, unit, count})
	return nil
}

// record adds a metric that is a ratio rather than a time.
func (l *ladder) record(name string, value float64, count int64) {
	l.out = append(l.out, layerMetric{name, value, "ratio", count})
}

func (l *ladder) run() error {
	for _, rung := range []func() error{l.prngAndDraws, l.buses, l.engines, l.fabrics, l.jobPath} {
		if err := rung(); err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) prngAndDraws() error {
	n := l.n(1 << 24)
	src := prng.NewXorShift64Star(l.seed)
	if err := l.probe("prng.next_ns", "ns", n, func() error {
		var x uint64
		for i := int64(0); i < n; i++ {
			x ^= src.Uint64()
		}
		sink += x
		return nil
	}); err != nil {
		return err
	}
	tickets := []uint64{1, 2, 3, 4}
	static, err := core.NewStaticLottery(core.StaticConfig{Tickets: tickets, Source: prng.NewXorShift64Star(l.seed)})
	if err != nil {
		return err
	}
	n = l.n(1 << 22)
	if err := l.probe("core.static_draw_ns", "ns", n, func() error {
		for i := int64(0); i < n; i++ {
			sink += uint64(static.Draw(0b1111))
		}
		return nil
	}); err != nil {
		return err
	}
	dynamic, err := core.NewDynamicLottery(core.DynamicConfig{Masters: 4, Source: prng.NewXorShift64Star(l.seed)})
	if err != nil {
		return err
	}
	return l.probe("core.dynamic_draw_ns", "ns", n, func() error {
		for i := int64(0); i < n; i++ {
			sink += uint64(dynamic.Draw(0b1111, tickets))
		}
		return nil
	})
}

// fig3Bus builds the paper's Fig. 3 system from the public bus, traffic,
// core and arb APIs: four masters with tickets 1:2:3:4 sharing one
// memory under a static lottery. gen returns master i's generator (nil
// for an idle master).
func fig3Bus(seed uint64, gen func(i int) (bus.Generator, error)) (*bus.Bus, error) {
	b := bus.New(bus.Config{MaxBurst: 16})
	for i := 0; i < 4; i++ {
		g, err := gen(i)
		if err != nil {
			return nil, err
		}
		b.AddMaster(fmt.Sprintf("C%d", i+1), g, bus.MasterOpts{Tickets: uint64(i + 1)})
	}
	b.AddSlave("shared-memory", bus.SlaveOpts{})
	mgr, err := core.NewStaticLottery(core.StaticConfig{
		Tickets: []uint64{1, 2, 3, 4},
		Source:  prng.NewXorShift64Star(prng.Derive(seed, "fig3/lottery")),
	})
	if err != nil {
		return nil, err
	}
	b.SetArbiter(arb.NewStaticLottery(mgr))
	return b, nil
}

// bernoulli returns Fig. 3 generators offering load words/cycle each in
// 16-word messages.
func bernoulli(seed uint64, load float64) func(i int) (bus.Generator, error) {
	return func(i int) (bus.Generator, error) {
		return traffic.NewBernoulli(load, traffic.Fixed(16), 0, prng.Derive(seed, fmt.Sprintf("fig3/gen%d", i)))
	}
}

// buses times one bus cycle in the four regimes the figures sweep:
// saturated (the naive loop), busy (Figs. 4 and 6), low load and idle
// (where fast-forward skips dead cycles).
func (l *ladder) buses() error {
	regimes := []struct {
		name   string
		gen    func(i int) (bus.Generator, error)
		cycles int64
		chunks int64 // Run calls the cycles are split into
	}{
		{"bus.saturated_ns_per_cycle", func(int) (bus.Generator, error) { return &traffic.Saturating{Words: 16}, nil }, l.n(1 << 21), 1},
		{"bus.busy_ns_per_cycle", bernoulli(l.seed, 0.72), l.n(1 << 21), 1},
		{"bus.lowload_ns_per_cycle", bernoulli(l.seed, 0.025), l.n(1 << 24), 1},
		// An idle bus skips each Run call in one step, so it is run the
		// way the server and lotterysim run long jobs: in RunChunk slices.
		{"bus.idle_ns_per_cycle", func(int) (bus.Generator, error) { return nil, nil }, l.n(64) * lotterybus.RunChunk, l.n(64)},
	}
	for _, r := range regimes {
		b, err := fig3Bus(l.seed, r.gen)
		if err != nil {
			return err
		}
		if err := b.Run(4096); err != nil { // past the queue-fill transient
			return err
		}
		ff0 := b.FastForwarded()
		if err := l.probe(r.name, "ns", r.cycles, func() error {
			for c := int64(0); c < r.chunks; c++ {
				if err := b.Run(r.cycles / r.chunks); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if r.name == "bus.lowload_ns_per_cycle" {
			l.record("bus.ff_cycle_ratio", float64(b.FastForwarded()-ff0)/float64(r.cycles), r.cycles)
		}
	}
	return nil
}

// sampleConfig is the sample system the replicate and serve workloads
// run, at the given seed.
func sampleConfig(seed uint64) simcfg.SimConfig {
	c := *simcfg.SampleConfig()
	c.Seed = seed
	return c
}

// engines times the sample system on the scalar engine, on a one-lane
// replica set, and on a 32-lane set, all on one worker; and the build
// of a 32-replica set (the engine itself is built on the first Run).
func (l *ladder) engines() error {
	cfg := sampleConfig(positiveSeed(l.seed, "ladder/engines"))
	n := l.n(1 << 21)
	sys, err := cfg.Build()
	if err != nil {
		return err
	}
	if err := l.probe("bus.scalar_ns_per_cycle", "ns", n, func() error { return sys.Run(n) }); err != nil {
		return err
	}
	one, err := cfg.BuildReplicaSet(1)
	if err != nil {
		return err
	}
	one.SetParallel(1)
	if err := l.probe("lanes.one_lane_ns_per_cycle", "ns", n, func() error { return one.Run(n) }); err != nil {
		return err
	}
	const lanes = 32
	wide, err := cfg.BuildReplicaSet(lanes)
	if err != nil {
		return err
	}
	wide.SetParallel(1)
	if err := l.probe("lanes.ns_per_lane_cycle", "ns", lanes*max(n/lanes, 1), func() error { return wide.Run(max(n/lanes, 1)) }); err != nil {
		return err
	}
	builds := l.n(32)
	return l.probe("simcfg.build_replicaset_ms", "ms", builds, func() error {
		for i := int64(0); i < builds; i++ {
			if _, err := buildReplicaSet(cfg, lanes); err != nil {
				return err
			}
		}
		return nil
	})
}

// fabrics times the cmp64 crossbar in lock-step and port by port, the
// bridged chain in lock-step (all per segment-cycle), and the crossbar
// audit.
func (l *ladder) fabrics() error {
	n := l.n(1 << 16)
	lock, err := cmp64Crossbar(l.seed)
	if err != nil {
		return err
	}
	ports := int64(lock.NumPorts())
	if err := l.probe("topology.lockstep_ns_per_cycle", "ns", n*ports, func() error { return lock.Run(n) }); err != nil {
		return err
	}
	each, err := cmp64Crossbar(l.seed)
	if err != nil {
		return err
	}
	if err := l.probe("topology.port_run_ns_per_cycle", "ns", n*ports, func() error {
		for p := 0; p < each.NumPorts(); p++ {
			if err := each.Port(p).Run(n); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	chain, _, err := newChain(l.seed)
	if err != nil {
		return err
	}
	if err := l.probe("topology.chain_ns_per_cycle", "ns", n*chainSegments, func() error { return chain.Run(n) }); err != nil {
		return err
	}
	audits := l.n(16)
	return l.probe("check.audit_ms", "ms", audits, func() error {
		for i := int64(0); i < audits; i++ {
			if v := check.AuditCrossbar(lock); len(v) > 0 {
				return fmt.Errorf("cmp64 crossbar: %s", v[0])
			}
		}
		return nil
	})
}

// jobPath times each step a serve job takes outside the simulation, on
// the serve workloads' job: parse, canonicalize, build, render the
// report, encode and decode the snapshot, and the cache's memory hit,
// disk write and disk hit.
func (l *ladder) jobPath() error {
	cfg := sampleConfig(positiveSeed(l.seed, "ladder/job"))
	cfg.Cycles = fullSizes.jobCycles
	raw, err := json.Marshal(&cfg)
	if err != nil {
		return err
	}
	body, err := json.Marshal(serve.JobRequest{Client: "a", Replicate: fullSizes.jobReplicas, Config: raw})
	if err != nil {
		return err
	}
	n := l.n(1 << 12)
	if err := l.probe("serve.parse_job_us", "us", n, func() error {
		for i := int64(0); i < n; i++ {
			if _, err := serve.ParseJob(bytes.NewReader(body), serve.Limits{}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := l.probe("simcfg.canonical_us", "us", n, func() error {
		for i := int64(0); i < n; i++ {
			if _, err := cfg.Canonical(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := l.probe("simcfg.build_us", "us", n, func() error {
		for i := int64(0); i < n; i++ {
			if _, err := cfg.Build(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	sys, err := cfg.Build()
	if err != nil {
		return err
	}
	if err := sys.Run(cfg.Cycles); err != nil {
		return err
	}
	col := sys.Collector()
	n = l.n(1 << 10) // each of the remaining steps handles a whole snapshot
	if err := l.probe("lotterybus.report_us", "us", n, func() error {
		for i := int64(0); i < n; i++ {
			sink += uint64(len(sys.ReportFor(col).String()))
		}
		return nil
	}); err != nil {
		return err
	}
	var enc []byte
	if err := l.probe("stats.encode_us", "us", n, func() error {
		for i := int64(0); i < n; i++ {
			enc = col.EncodeSnapshot()
		}
		return nil
	}); err != nil {
		return err
	}
	if err := l.probe("stats.decode_us", "us", n, func() error {
		for i := int64(0); i < n; i++ {
			if _, err := stats.DecodeSnapshot(enc); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return l.cache(col, n)
}

// cache times memory hits, disk writes and disk hits of one snapshot.
func (l *ladder) cache(col *stats.Collector, n int64) error {
	mem := cache.New("")
	key := cache.KeyOf([]byte("ladder"), l.seed, "")
	mem.Put(key, col)
	if err := l.probe("cache.memory_hit_us", "us", n, func() error {
		for i := int64(0); i < n; i++ {
			if _, _, ok := mem.Get(key); !ok {
				return fmt.Errorf("memory miss")
			}
		}
		return nil
	}); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(l.tmp, "ladder-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	files := l.n(1 << 9)
	keys := make([]cache.Key, files)
	for i := range keys {
		keys[i] = cache.KeyOf([]byte("ladder"), l.seed+uint64(i)+1, "")
	}
	disk := cache.New(filepath.Join(dir, "c"))
	if err := l.probe("cache.put_us", "us", files, func() error {
		for _, k := range keys {
			disk.Put(k, col)
		}
		return nil
	}); err != nil {
		return err
	}
	return l.probe("cache.disk_hit_us", "us", files, func() error {
		for _, k := range keys {
			// A fresh cache has an empty memory layer, so every Get reads,
			// verifies and decodes the file.
			if _, src, ok := cache.New(filepath.Join(dir, "c")).Get(k); !ok || src != cache.SourceDisk {
				return fmt.Errorf("disk miss")
			}
		}
		return nil
	})
}
