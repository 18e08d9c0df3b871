// Package fault provides a deterministic, seeded fault injector for the
// bus simulator: slave error responses, transient per-word transfer
// errors, hung split responses, and babbling masters that flood the bus
// with spurious traffic.
//
// Like every stochastic component of the simulator, the injector draws
// from explicitly seeded streams (package prng) split per slave and per
// babbler, never from math/rand. The bus consults the injector in a
// fixed per-cycle order, so a degraded run is as bit-reproducible as a
// clean one — serial and parallel sweeps over fault rates agree exactly
// under any worker count.
//
// The package deliberately does not import internal/bus: the Injector
// satisfies bus.FaultModel structurally (builtin-typed methods only),
// keeping the dependency arrow pointing from experiments down to both.
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"lotterybus/internal/prng"
)

// Babbler describes one misbehaving master that injects spurious
// messages. A stuck-request master is the Load=1 special case: it
// re-asserts a request every cycle for as long as the window lasts.
type Babbler struct {
	// Master is the index of the misbehaving master.
	Master int `json:"master"`
	// Start is the first cycle of the babble window.
	Start int64 `json:"start,omitempty"`
	// Stop is the first cycle after the window; zero means forever.
	Stop int64 `json:"stop,omitempty"`
	// Load is the per-cycle probability of injecting a spurious
	// message (1 = every cycle, i.e. a stuck request line).
	Load float64 `json:"load"`
	// Words is the spurious message length; zero selects 1.
	Words int `json:"words,omitempty"`
	// Slave is the destination of the spurious messages.
	Slave int `json:"slave,omitempty"`
}

// Config parameterizes an Injector. The zero value is a disarmed model:
// attaching it to a bus changes nothing, including the fast-forward
// engine's eligibility.
type Config struct {
	// Seed roots every fault stream. Distinct seeds give independent
	// fault realizations; equal seeds reproduce a run exactly.
	Seed uint64 `json:"seed,omitempty"`
	// SlaveError is the per-beat probability of a slave error
	// termination (the Wishbone ERR analogue): the burst dies and the
	// master's bounded retry machinery takes over.
	SlaveError float64 `json:"slave_error,omitempty"`
	// WordError is the per-beat probability of a transient single-word
	// corruption: the beat is wasted and the word resent.
	WordError float64 `json:"word_error,omitempty"`
	// SplitHang is the per-request probability that a split-capable
	// slave silently drops the request, leaving the master waiting for
	// a response that never comes until the bus watchdog fires.
	SplitHang float64 `json:"split_hang,omitempty"`
	// Babblers lists misbehaving masters.
	Babblers []Babbler `json:"babblers,omitempty"`
}

// Armed reports whether any fault mechanism can fire.
func (c Config) Armed() bool {
	if c.SlaveError > 0 || c.WordError > 0 || c.SplitHang > 0 {
		return true
	}
	for _, b := range c.Babblers {
		if b.Load > 0 {
			return true
		}
	}
	return false
}

// Validate checks the configuration against a bus with the given master
// and slave counts.
func (c Config) Validate(masters, slaves int) error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"slave_error", c.SlaveError},
		{"word_error", c.WordError},
		{"split_hang", c.SplitHang},
	} {
		if r.v < 0 || r.v > 1 || r.v != r.v {
			return fmt.Errorf("fault: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	seen := make(map[int]bool, len(c.Babblers))
	for i, b := range c.Babblers {
		if b.Master < 0 || (masters > 0 && b.Master >= masters) {
			return fmt.Errorf("fault: babbler %d targets invalid master %d", i, b.Master)
		}
		if seen[b.Master] {
			return fmt.Errorf("fault: duplicate babbler for master %d", b.Master)
		}
		seen[b.Master] = true
		if b.Load < 0 || b.Load > 1 || b.Load != b.Load {
			return fmt.Errorf("fault: babbler %d load %v outside [0,1]", i, b.Load)
		}
		if b.Words < 0 {
			return fmt.Errorf("fault: babbler %d has negative words %d", i, b.Words)
		}
		if b.Start < 0 || b.Stop < 0 {
			return fmt.Errorf("fault: babbler %d has negative window [%d,%d)", i, b.Start, b.Stop)
		}
		if b.Stop != 0 && b.Stop <= b.Start {
			return fmt.Errorf("fault: babbler %d window [%d,%d) is empty", i, b.Start, b.Stop)
		}
		if b.Slave < 0 || (slaves > 0 && b.Slave >= slaves) {
			return fmt.Errorf("fault: babbler %d targets invalid slave %d", i, b.Slave)
		}
	}
	return nil
}

// ParseConfig decodes a strict JSON fault configuration (unknown fields
// rejected) and validates the rate ranges. Index bounds against a
// concrete bus are checked later by New.
func ParseConfig(data []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("fault: parse config: %w", err)
	}
	if dec.More() {
		return Config{}, fmt.Errorf("fault: trailing data after config")
	}
	if err := c.Validate(0, 0); err != nil {
		return Config{}, err
	}
	return c, nil
}

// babbler is the runtime state of one misbehaving master.
type babbler struct {
	Babbler
	src *prng.XorShift64Star
}

// Injector is the runtime fault model. It satisfies bus.FaultModel.
// Each fault class owns independent per-slave streams (and each babbler
// a per-master stream), so enabling one class never perturbs the
// realization of another.
type Injector struct {
	cfg   Config
	armed bool
	// Per-slave streams, held as the concrete generator so the per-beat
	// draws compile to direct, inlined calls.
	err     []*prng.XorShift64Star // error-termination streams
	corrupt []*prng.XorShift64Star // word-corruption streams
	hang    []*prng.XorShift64Star // split-hang streams
	babble  []*babbler             // indexed by master; nil for the well-behaved
}

// New builds an Injector for a bus with the given master and slave
// counts. The configuration is validated against those bounds.
func New(cfg Config, masters, slaves int) (*Injector, error) {
	if err := cfg.Validate(masters, slaves); err != nil {
		return nil, err
	}
	// A bus may have zero declared slaves (every message then targets
	// the implicit slave 0), so keep at least one stream per class.
	n := slaves
	if n < 1 {
		n = 1
	}
	inj := &Injector{
		cfg:     cfg,
		armed:   cfg.Armed(),
		err:     make([]*prng.XorShift64Star, n),
		corrupt: make([]*prng.XorShift64Star, n),
		hang:    make([]*prng.XorShift64Star, n),
		babble:  make([]*babbler, max(masters, maxBabbleMaster(cfg)+1)),
	}
	for s := 0; s < n; s++ {
		inj.err[s] = prng.NewXorShift64Star(prng.Derive(cfg.Seed, fmt.Sprintf("fault/err/%d", s)))
		inj.corrupt[s] = prng.NewXorShift64Star(prng.Derive(cfg.Seed, fmt.Sprintf("fault/corrupt/%d", s)))
		inj.hang[s] = prng.NewXorShift64Star(prng.Derive(cfg.Seed, fmt.Sprintf("fault/hang/%d", s)))
	}
	for _, bc := range cfg.Babblers {
		b := &babbler{Babbler: bc}
		if b.Words == 0 {
			b.Words = 1
		}
		b.src = prng.NewXorShift64Star(prng.Derive(cfg.Seed, fmt.Sprintf("fault/babble/%d", bc.Master)))
		inj.babble[bc.Master] = b
	}
	return inj, nil
}

func maxBabbleMaster(cfg Config) int {
	m := -1
	for _, b := range cfg.Babblers {
		if b.Master > m {
			m = b.Master
		}
	}
	return m
}

// Config returns the configuration the injector was built from.
func (inj *Injector) Config() Config { return inj.cfg }

// Armed reports whether any fault mechanism can fire.
func (inj *Injector) Armed() bool { return inj.armed }

// slaveStream clamps a slave index into the allocated streams (a bus
// with no declared slaves passes whatever index its messages carry).
func clampSlave(streams []*prng.XorShift64Star, slave int) *prng.XorShift64Star {
	if slave < 0 || slave >= len(streams) {
		return streams[0]
	}
	return streams[slave]
}

// hit is prng.Bernoulli for p > 0 on a concrete stream: the same draw
// (none at p >= 1) and the same outcome, small enough to inline.
func hit(src *prng.XorShift64Star, p float64) bool {
	return p >= 1 || prng.Float64(src) < p
}

// ErrorResponse draws the slave-error-termination event for one data
// beat.
func (inj *Injector) ErrorResponse(_ int64, _ int, slave int) bool {
	return inj.cfg.SlaveError > 0 && hit(clampSlave(inj.err, slave), inj.cfg.SlaveError)
}

// WordError draws the transient word-corruption event for one data beat.
func (inj *Injector) WordError(_ int64, _ int, slave int) bool {
	return inj.cfg.WordError > 0 && hit(clampSlave(inj.corrupt, slave), inj.cfg.WordError)
}

// SplitHang draws the hung-response event for one split request.
func (inj *Injector) SplitHang(_ int64, _ int, slave int) bool {
	return inj.cfg.SplitHang > 0 && hit(clampSlave(inj.hang, slave), inj.cfg.SplitHang)
}

// Babble draws master's spurious injection for this cycle.
func (inj *Injector) Babble(cycle int64, master int) (words, slave int, ok bool) {
	if master >= len(inj.babble) {
		return 0, 0, false
	}
	b := inj.babble[master]
	if b == nil || cycle < b.Start || (b.Stop != 0 && cycle >= b.Stop) {
		return 0, 0, false
	}
	if b.Load <= 0 || !hit(b.src, b.Load) {
		return 0, 0, false
	}
	return b.Words, b.Slave, true
}

// BabbleWindow returns the earliest babble window [start, stop) with
// stop > cycle, clipped to start no earlier than cycle; start is
// math.MaxInt64 when no babbler can fire again, and a window that never
// closes stops at math.MaxInt64. Babble never injects (nor draws)
// before the returned start, which lets the bus fast-forward up to it.
func (inj *Injector) BabbleWindow(cycle int64) (start, stop int64) {
	start, stop = math.MaxInt64, math.MaxInt64
	for _, b := range inj.babble {
		if b == nil || b.Load <= 0 {
			continue
		}
		s, e := max(b.Start, cycle), b.Stop
		if e == 0 {
			e = math.MaxInt64
		}
		if e > cycle && s < start {
			start, stop = s, e
		}
	}
	return start, stop
}
