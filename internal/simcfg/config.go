// Package simcfg is the JSON schema of a simulation run: the SimConfig
// structure, its strict parser/validator, the canonical effective-form
// serialization that result-cache keys and journal provenance hash, and
// the builders that turn a config into live Systems, one per seed-replica.
//
// It started life inside cmd/lotterysim; the simulation job server
// (internal/serve) accepts the same schema over HTTP, so the config
// layer lives here where both front ends — and any future one — share a
// single parse/validate/canonicalize/build pipeline.
package simcfg

import (
	"encoding/json"
	"fmt"
	"io"

	"lotterybus"
	"lotterybus/internal/analytic"
	"lotterybus/internal/core"
)

// SimConfig is the JSON schema of a lotterysim run.
type SimConfig struct {
	// Cycles is the simulation length in bus cycles.
	Cycles int64 `json:"cycles"`
	// Seed drives all stochastic elements.
	Seed uint64 `json:"seed"`
	// MaxBurst caps a single grant in words (default 16).
	MaxBurst int `json:"maxBurst,omitempty"`
	// ArbLatency is the idle cycles per arbitration (default 0).
	ArbLatency int `json:"arbLatency,omitempty"`
	// Arbiter selects the communication architecture.
	Arbiter ArbiterConfig `json:"arbiter"`
	// Slaves lists the slave interfaces in index order.
	Slaves []SlaveConfig `json:"slaves"`
	// Masters lists the master interfaces in index order.
	Masters []MasterConfig `json:"masters"`
	// Resilience tunes the retry/timeout/starvation machinery; omit for
	// the defaults (retry limit 16, no backoff, detectors disarmed).
	Resilience *ResilienceConfig `json:"resilience,omitempty"`
	// Faults arms deterministic fault injection; omit for a clean bus.
	Faults *lotterybus.FaultConfig `json:"faults,omitempty"`
}

// ResilienceConfig tunes the bus's fault-recovery machinery.
type ResilienceConfig struct {
	// RetryLimit bounds re-attempts of an error-terminated burst.
	RetryLimit int `json:"retryLimit,omitempty"`
	// RetryBackoff is the linear backoff unit, in cycles per
	// consecutive failure.
	RetryBackoff int `json:"retryBackoff,omitempty"`
	// SplitTimeout arms the split-transaction watchdog.
	SplitTimeout int64 `json:"splitTimeout,omitempty"`
	// StarvationThreshold arms the starvation detector.
	StarvationThreshold int64 `json:"starvationThreshold,omitempty"`
}

// ArbiterConfig selects and parameterizes the arbitration scheme.
type ArbiterConfig struct {
	// Kind is one of: lottery, dynamic-lottery, compensated-lottery,
	// priority, tdma, tdma1, round-robin, token-ring.
	Kind string `json:"kind"`
	// SlotsPerWeight sizes TDMA reservation blocks (default 16).
	SlotsPerWeight int `json:"slotsPerWeight,omitempty"`
}

// SlaveConfig describes one slave interface.
type SlaveConfig struct {
	Name       string `json:"name"`
	WaitStates int    `json:"waitStates,omitempty"`
	// SplitLatency, when positive, makes this a split-transaction
	// target: the bus is released for this many cycles between the
	// request beat and the data phase.
	SplitLatency int `json:"splitLatency,omitempty"`
}

// MasterConfig describes one master interface.
type MasterConfig struct {
	Name string `json:"name"`
	// Weight is the master's QoS weight (tickets/slots/priority).
	Weight  uint64        `json:"weight"`
	Traffic TrafficConfig `json:"traffic"`
}

// TrafficConfig describes one master's arrival process.
type TrafficConfig struct {
	// Kind is one of: saturating, bernoulli, bursty, periodic, class,
	// none.
	Kind string `json:"kind"`
	// MsgWords is the message size in words.
	MsgWords int `json:"msgWords,omitempty"`
	// Slave is the destination slave index.
	Slave int `json:"slave,omitempty"`
	// Load is the offered load in words/cycle (bernoulli, bursty).
	Load float64 `json:"load,omitempty"`
	// LoadOn is the in-burst load (bursty).
	LoadOn float64 `json:"loadOn,omitempty"`
	// MeanOn is the mean burst dwell in cycles (bursty).
	MeanOn float64 `json:"meanOn,omitempty"`
	// Period and Phase configure periodic traffic.
	Period int64 `json:"period,omitempty"`
	Phase  int64 `json:"phase,omitempty"`
	// Class names a predefined traffic class (T1..T9, L1..L6).
	Class string `json:"class,omitempty"`
}

// ParseConfig decodes and validates a SimConfig.
func ParseConfig(r io.Reader) (*SimConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg SimConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("parsing config: %w", err)
	}
	if cfg.Cycles <= 0 {
		return nil, fmt.Errorf("config: cycles must be positive")
	}
	if cfg.MaxBurst < 0 {
		return nil, fmt.Errorf("config: maxBurst must be non-negative")
	}
	if cfg.ArbLatency < 0 {
		return nil, fmt.Errorf("config: arbLatency must be non-negative")
	}
	if len(cfg.Masters) == 0 {
		return nil, fmt.Errorf("config: at least one master required")
	}
	if len(cfg.Masters) > maxMasters {
		return nil, fmt.Errorf("config: %d masters exceeds core.MaxMasters (%d)", len(cfg.Masters), maxMasters)
	}
	if len(cfg.Slaves) == 0 {
		return nil, fmt.Errorf("config: at least one slave required")
	}
	// The facade quietly promotes a zero weight to one so a single
	// careless master still works, but a configuration where EVERY
	// weight is zero describes no bandwidth split at all — accepting it
	// would silently run a uniform lottery the user never asked for.
	allZero := true
	for _, m := range cfg.Masters {
		if m.Weight != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return nil, fmt.Errorf("config: all master weights are zero; give at least one master a positive weight")
	}
	for i, m := range cfg.Masters {
		if m.Traffic.Slave < 0 || m.Traffic.Slave >= len(cfg.Slaves) {
			return nil, fmt.Errorf("config: master %d targets invalid slave %d (have %d slaves)", i, m.Traffic.Slave, len(cfg.Slaves))
		}
		if err := m.Traffic.validate(); err != nil {
			return nil, fmt.Errorf("config: master %d: %w", i, err)
		}
	}
	if r := cfg.Resilience; r != nil {
		if r.RetryLimit < 0 || r.RetryBackoff < 0 || r.SplitTimeout < 0 || r.StarvationThreshold < 0 {
			return nil, fmt.Errorf("config: resilience values must be non-negative")
		}
	}
	if cfg.Faults != nil {
		for i, b := range cfg.Faults.Babblers {
			if b.Master < 0 || b.Master >= len(cfg.Masters) {
				return nil, fmt.Errorf("config: babbler %d names invalid master %d", i, b.Master)
			}
			if b.Slave < 0 || b.Slave >= len(cfg.Slaves) {
				return nil, fmt.Errorf("config: babbler %d targets invalid slave %d", i, b.Slave)
			}
		}
	}
	return &cfg, nil
}

// Build constructs the System described by the config: one replica at
// Seed.
func (cfg *SimConfig) Build() (*lotterybus.System, error) {
	sys := lotterybus.NewSystem(cfg.busConfig())
	cfg.addSlaves(sys)
	for i, m := range cfg.Masters {
		gen, err := m.Traffic.build(i, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("master %s: %w", m.Name, err)
		}
		sys.AddMaster(m.Name, m.Weight, gen)
	}
	if cfg.Faults != nil {
		if err := sys.SetFaults(*cfg.Faults); err != nil {
			return nil, fmt.Errorf("config faults: %w", err)
		}
	}
	return sys, cfg.useArbiter(sys)
}

// BuildReplicaSet builds n seed-replicas of the system — replica i is
// Build() of the config at Seed+i — and hands them to a ReplicaSet.
func (cfg *SimConfig) BuildReplicaSet(n int) (*lotterybus.ReplicaSet, error) {
	if err := cfg.CheckReplicas(n); err != nil {
		return nil, err
	}
	systems := make([]*lotterybus.System, n)
	for i := range systems {
		c := cfg.replica(i)
		sys, err := c.Build()
		if err != nil {
			return nil, err
		}
		systems[i] = sys
	}
	return lotterybus.NewReplicaSet(systems...), nil
}

// armsResilience reports whether the config arms fault injection, the
// split watchdog or the starvation detector.
func (cfg *SimConfig) armsResilience() bool {
	r := cfg.Resilience
	return cfg.Faults != nil || r != nil && (r.SplitTimeout > 0 || r.StarvationThreshold > 0)
}

// busConfig is the lotterybus.Config Build gives its System.
func (cfg *SimConfig) busConfig() lotterybus.Config {
	c := lotterybus.Config{
		MaxBurst:   cfg.MaxBurst,
		ArbLatency: cfg.ArbLatency,
		Seed:       cfg.Seed,
	}
	if r := cfg.Resilience; r != nil {
		c.RetryLimit = r.RetryLimit
		c.RetryBackoff = r.RetryBackoff
		c.SplitTimeout = r.SplitTimeout
		c.StarvationThreshold = r.StarvationThreshold
	}
	return c
}

// addSlaves attaches the configured slaves in index order.
func (cfg *SimConfig) addSlaves(sys *lotterybus.System) {
	for _, s := range cfg.Slaves {
		if s.SplitLatency > 0 {
			sys.AddSplitSlave(s.Name, s.SplitLatency)
		} else {
			sys.AddSlave(s.Name, s.WaitStates)
		}
	}
}

// useArbiter selects the configured arbitration scheme.
func (cfg *SimConfig) useArbiter(sys *lotterybus.System) error {
	spw := cfg.Arbiter.SlotsPerWeight
	if spw == 0 {
		spw = 16
	}
	switch cfg.Arbiter.Kind {
	case "lottery", "":
		return sys.UseLottery()
	case "dynamic-lottery":
		return sys.UseDynamicLottery()
	case "compensated-lottery":
		return sys.UseCompensatedLottery()
	case "priority":
		return sys.UsePriority()
	case "tdma":
		return sys.UseTDMA(spw, true)
	case "tdma1":
		return sys.UseTDMA(spw, false)
	case "round-robin":
		return sys.UseRoundRobin()
	case "token-ring":
		return sys.UseTokenRing()
	default:
		return fmt.Errorf("unknown arbiter kind %q", cfg.Arbiter.Kind)
	}
}

// AnalyticPoint reduces the configuration to the regime classifier's
// vocabulary (internal/analytic). ok is false when the config arms
// machinery classification cannot reason about — fault injection, the
// split watchdog or the starvation detector — so such runs always
// simulate.
func (cfg *SimConfig) AnalyticPoint() (analytic.Point, bool) {
	if cfg.armsResilience() {
		return analytic.Point{}, false
	}
	kind := cfg.Arbiter.Kind
	if kind == "" {
		kind = "lottery"
	}
	p := analytic.Point{
		Arbiter:    kind,
		MaxBurst:   cfg.MaxBurst,
		ArbLatency: cfg.ArbLatency,
	}
	if p.MaxBurst == 0 {
		p.MaxBurst = 16
	}
	for _, s := range cfg.Slaves {
		p.Slaves = append(p.Slaves, analytic.PointSlave{
			WaitStates: s.WaitStates,
			Split:      s.SplitLatency > 0,
		})
	}
	for _, m := range cfg.Masters {
		w := m.Weight
		if w == 0 {
			w = 1 // the facade promotes a zero weight to one
		}
		p.Weights = append(p.Weights, w)
		p.Masters = append(p.Masters, m.Traffic.point())
	}
	return p, true
}

// point describes what this arrival process provably does, independent
// of its seeding. Kinds classification cannot bound (traffic classes,
// unknown kinds) report LoadKnown false and therefore classify Mixed.
func (t *TrafficConfig) point() analytic.PointMaster {
	pm := analytic.PointMaster{Words: defaultWords(t.MsgWords), Slave: t.Slave}
	switch t.Kind {
	case "saturating":
		pm.Saturating = true
	case "none":
		pm.LoadKnown = true // exactly zero offered load
	case "bernoulli", "bursty":
		// Both are parameterized by their long-run load directly.
		pm.LoadKnown, pm.OfferedLoad = true, t.Load
	case "periodic":
		if t.Period > 0 {
			pm.LoadKnown = true
			pm.OfferedLoad = float64(pm.Words) / float64(t.Period)
		}
	}
	return pm
}

// maxMasters is the fabric-wide master limit, derived from the one
// exported constant so the validation layer can never drift from the
// lottery managers' own cap.
const maxMasters = core.MaxMasters

// validate rejects parameter values Build would otherwise coerce or
// silently mis-simulate: a negative message size (defaultWords would
// quietly substitute 16), offered loads outside [0,1] (probabilities),
// and negative periods/phases/dwells.
func (t *TrafficConfig) validate() error {
	if t.MsgWords < 0 {
		return fmt.Errorf("msgWords %d is negative", t.MsgWords)
	}
	if t.Load < 0 || t.Load > 1 {
		return fmt.Errorf("load %g outside [0,1]", t.Load)
	}
	if t.LoadOn < 0 || t.LoadOn > 1 {
		return fmt.Errorf("loadOn %g outside [0,1]", t.LoadOn)
	}
	if t.MeanOn < 0 {
		return fmt.Errorf("meanOn %g is negative", t.MeanOn)
	}
	if t.Period < 0 {
		return fmt.Errorf("period %d is negative", t.Period)
	}
	if t.Phase < 0 {
		return fmt.Errorf("phase %d is negative", t.Phase)
	}
	return nil
}

// build constructs one master's generator.
func (t *TrafficConfig) build(master int, seed uint64) (lotterybus.Generator, error) {
	streamSeed := seed*0x9e3779b97f4a7c15 + uint64(master+1)
	switch t.Kind {
	case "saturating":
		return lotterybus.SaturatingTraffic(defaultWords(t.MsgWords), t.Slave), nil
	case "bernoulli":
		return lotterybus.BernoulliTraffic(t.Load, defaultWords(t.MsgWords), t.Slave, streamSeed)
	case "bursty":
		meanOn := t.MeanOn
		if meanOn == 0 {
			meanOn = 40 * float64(defaultWords(t.MsgWords))
		}
		loadOn := t.LoadOn
		if loadOn == 0 {
			loadOn = 5 * t.Load
			if loadOn > 0.9 {
				loadOn = 0.9
			}
		}
		return lotterybus.BurstyTraffic(t.Load, loadOn, meanOn, defaultWords(t.MsgWords), t.Slave, streamSeed)
	case "periodic":
		if t.Period <= 0 {
			return nil, fmt.Errorf("periodic traffic needs a positive period")
		}
		return lotterybus.PeriodicTraffic(t.Period, t.Phase, defaultWords(t.MsgWords), t.Slave), nil
	case "class":
		return lotterybus.TrafficClass(t.Class, master, t.Slave, seed)
	case "none":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown traffic kind %q", t.Kind)
	}
}

func defaultWords(w int) int {
	if w <= 0 {
		return 16
	}
	return w
}

// SampleConfig returns a documented example configuration.
func SampleConfig() *SimConfig {
	return &SimConfig{
		Cycles:   200000,
		Seed:     42,
		MaxBurst: 16,
		Arbiter:  ArbiterConfig{Kind: "lottery"},
		Slaves:   []SlaveConfig{{Name: "shared-memory"}},
		Masters: []MasterConfig{
			{Name: "cpu", Weight: 4, Traffic: TrafficConfig{Kind: "bernoulli", Load: 0.4, MsgWords: 16}},
			{Name: "dsp", Weight: 3, Traffic: TrafficConfig{Kind: "bursty", Load: 0.2, MsgWords: 16}},
			{Name: "dma", Weight: 2, Traffic: TrafficConfig{Kind: "saturating", MsgWords: 16}},
			{Name: "io", Weight: 1, Traffic: TrafficConfig{Kind: "periodic", Period: 100, MsgWords: 4}},
		},
	}
}
