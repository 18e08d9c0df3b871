package bus

import "testing"

// fnFM is a scriptable fault model for unit tests: each behaviour is a
// function field, nil meaning "never fires". babble may fire only in
// [babbleFrom, babbleTo) (babbleTo 0: the window never closes), which
// BabbleWindow reports.
type fnFM struct {
	armed      bool
	err        func(cycle int64, master, slave int) bool
	word       func(cycle int64, master, slave int) bool
	hang       func(cycle int64, master, slave int) bool
	babble     func(cycle int64, master int) (int, int, bool)
	babbleFrom int64
	babbleTo   int64
}

func (f *fnFM) BabbleWindow(cycle int64) (int64, int64) {
	if f.babble == nil || f.babbleTo != 0 && f.babbleTo <= cycle {
		return never, never
	}
	stop := f.babbleTo
	if stop == 0 {
		stop = never
	}
	return max(cycle, f.babbleFrom), stop
}

func (f *fnFM) Armed() bool { return f.armed }

func (f *fnFM) ErrorResponse(cycle int64, master, slave int) bool {
	return f.err != nil && f.err(cycle, master, slave)
}

func (f *fnFM) WordError(cycle int64, master, slave int) bool {
	return f.word != nil && f.word(cycle, master, slave)
}

func (f *fnFM) SplitHang(cycle int64, master, slave int) bool {
	return f.hang != nil && f.hang(cycle, master, slave)
}

func (f *fnFM) Babble(cycle int64, master int) (int, int, bool) {
	if f.babble == nil {
		return 0, 0, false
	}
	return f.babble(cycle, master)
}

// depthGen is satGen declared as a Saturator, so it fast-forwards.
type depthGen struct{ satGen }

func (g *depthGen) Depth() int { return 2 }

func TestValidateRejectsNegativeConfig(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"MaxBurst", Config{MaxBurst: -1}},
		{"ArbLatency", Config{ArbLatency: -2}},
		{"DefaultQueueCap", Config{DefaultQueueCap: -3}},
		{"RetryLimit", Config{RetryLimit: -1}},
		{"RetryBackoff", Config{RetryBackoff: -1}},
		{"SplitTimeout", Config{SplitTimeout: -1}},
		{"StarvationThreshold", Config{StarvationThreshold: -1}},
	}
	for _, c := range cases {
		b := New(c.cfg)
		b.AddMaster("m0", nil, MasterOpts{})
		b.SetArbiter(fixedArb{words: 1})
		if err := b.Run(1); err == nil {
			t.Errorf("%s: negative value accepted", c.name)
		}
	}
}

func TestValidateRejectsNegativeSlaveOpts(t *testing.T) {
	for _, opts := range []SlaveOpts{{WaitStates: -1}, {SplitLatency: -4}} {
		b := New(Config{})
		b.AddMaster("m0", nil, MasterOpts{})
		b.AddSlave("bad", opts)
		b.SetArbiter(fixedArb{words: 1})
		if err := b.Run(1); err == nil {
			t.Errorf("negative slave opts %+v accepted", opts)
		}
	}
}

// retryBus builds a single-master, single-slave bus with the given
// resilience config and a huge fixed grant.
func retryBus(cfg Config) *Bus {
	b := New(cfg)
	b.AddMaster("m0", nil, MasterOpts{})
	b.AddSlave("mem", SlaveOpts{})
	b.SetArbiter(fixedArb{words: 1 << 20})
	return b
}

func TestErrorResponseRetriesThenCompletes(t *testing.T) {
	b := retryBus(Config{RetryBackoff: 3})
	fired := false
	b.SetFaultModel(&fnFM{armed: true, err: func(int64, int, int) bool {
		if fired {
			return false
		}
		fired = true
		return true
	}})
	b.Inject(0, 4, 0)
	if err := b.Run(20); err != nil {
		t.Fatal(err)
	}
	col := b.Collector()
	if got := col.Retries(0); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if got := col.ErrorWords(0); got != 1 {
		t.Fatalf("error words = %d, want 1", got)
	}
	if got := col.Aborts(0); got != 0 {
		t.Fatalf("aborts = %d, want 0", got)
	}
	if got := col.Messages(0); got != 1 {
		t.Fatalf("completed messages = %d, want 1", got)
	}
	if got := col.Words(0); got != 4 {
		t.Fatalf("words = %d, want 4", got)
	}
	// Error beat at cycle 0, backoff holds the request until cycle
	// 0+1+3*1 = 4, data beats move cycles 4..7.
	if got := col.MaxMessageLatency(0); got != 8 {
		t.Fatalf("message latency = %d, want 8 (1 error beat + 4-cycle backoff + 4 data beats)", got)
	}
}

func TestRetryLimitAborts(t *testing.T) {
	b := retryBus(Config{RetryLimit: 3})
	b.SetFaultModel(&fnFM{armed: true, err: func(int64, int, int) bool { return true }})
	b.Inject(0, 4, 0)
	if err := b.Run(40); err != nil {
		t.Fatal(err)
	}
	col := b.Collector()
	if got := col.Retries(0); got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
	if got := col.Aborts(0); got != 1 {
		t.Fatalf("aborts = %d, want 1", got)
	}
	if got := col.Messages(0); got != 0 {
		t.Fatalf("completed messages = %d, want 0", got)
	}
	if got := b.Master(0).QueueLen(); got != 0 {
		t.Fatalf("aborted message still queued (len %d)", got)
	}
	// The retry counter must reset after the abort: a fresh message
	// gets the full retry budget again.
	b.Inject(0, 2, 0)
	if err := b.Run(40); err != nil {
		t.Fatal(err)
	}
	if got := col.Retries(0); got != 6 {
		t.Fatalf("retries after second message = %d, want 6", got)
	}
	if got := col.Aborts(0); got != 2 {
		t.Fatalf("aborts after second message = %d, want 2", got)
	}
}

func TestWordErrorConsumesBudgetNotProgress(t *testing.T) {
	b := retryBus(Config{MaxBurst: 4})
	cnt := 0
	// Corrupt exactly the second beat of the run.
	b.SetFaultModel(&fnFM{armed: true, word: func(int64, int, int) bool {
		cnt++
		return cnt == 2
	}})
	b.Inject(0, 4, 0)
	if err := b.Run(20); err != nil {
		t.Fatal(err)
	}
	col := b.Collector()
	if got := col.ErrorWords(0); got != 1 {
		t.Fatalf("error words = %d, want 1", got)
	}
	if got := col.Words(0); got != 4 {
		t.Fatalf("words = %d, want 4 (corrupted beat resent)", got)
	}
	if got := col.Messages(0); got != 1 {
		t.Fatalf("completed messages = %d, want 1", got)
	}
	// 4 data beats + 1 wasted beat, but the wasted beat ate the 4-word
	// grant budget: beats 0,err,2,3 then re-arbitration for the last
	// word — still 5 busy cycles total, completion at cycle 4... the
	// grant boundary costs nothing extra with pipelined arbitration.
	if got := col.MaxMessageLatency(0); got != 5 {
		t.Fatalf("message latency = %d, want 5", got)
	}
}

func TestSplitHangWatchdog(t *testing.T) {
	b := New(Config{SplitTimeout: 20})
	b.AddMaster("m0", nil, MasterOpts{})
	b.AddSlave("split-mem", SlaveOpts{SplitLatency: 5})
	b.SetArbiter(fixedArb{words: 1 << 20})
	first := true
	b.SetFaultModel(&fnFM{armed: true, hang: func(int64, int, int) bool {
		h := first
		first = false
		return h
	}})
	b.Inject(0, 4, 0)
	b.Inject(0, 2, 0)
	if err := b.Run(60); err != nil {
		t.Fatal(err)
	}
	col := b.Collector()
	if got := col.SplitTimeouts(0); got != 1 {
		t.Fatalf("split timeouts = %d, want 1", got)
	}
	if got := col.Aborts(0); got != 1 {
		t.Fatalf("aborts = %d, want 1", got)
	}
	if b.Master(0).Outstanding() {
		t.Fatal("hung split still outstanding after watchdog")
	}
	// The second message proceeds normally once the watchdog frees the
	// master: address beat, 5-cycle split latency, 2 data beats.
	if got := col.Messages(0); got != 1 {
		t.Fatalf("completed messages = %d, want 1", got)
	}
	if got := col.Words(0); got != 2 {
		t.Fatalf("words = %d, want 2", got)
	}
}

func TestStarvationDetector(t *testing.T) {
	b := New(Config{StarvationThreshold: 100})
	b.AddMaster("hog", &satGen{words: 16, slave: 0}, MasterOpts{})
	b.AddMaster("victim", nil, MasterOpts{})
	b.AddSlave("mem", SlaveOpts{})
	// fixedArb always grants the lowest-indexed requester: the victim
	// never wins.
	b.SetArbiter(fixedArb{words: 16})
	b.Inject(1, 4, 0)
	if err := b.Run(1000); err != nil {
		t.Fatal(err)
	}
	col := b.Collector()
	if got := col.StarvedCycles(1); got < 800 {
		t.Fatalf("victim starved cycles = %d, want >= 800", got)
	}
	if got := col.MaxPendingWait(1); got < 900 {
		t.Fatalf("victim max pending wait = %d, want >= 900 (unbounded)", got)
	}
	if got := col.StarvedCycles(0); got != 0 {
		t.Fatalf("hog starved cycles = %d, want 0", got)
	}
	// The wait never ended, so no event fired — the evidence lives in
	// the max-wait tracker.
	if got := col.StarvationEvents(1); got != 0 {
		t.Fatalf("victim starvation events = %d, want 0 (wait still ongoing)", got)
	}
	// A later Run continues the same wait rather than restarting it.
	if err := b.Run(500); err != nil {
		t.Fatal(err)
	}
	if got := col.MaxPendingWait(1); got < 1400 {
		t.Fatalf("max pending wait after continued run = %d, want >= 1400", got)
	}
}

func TestBabbleInjectsTraffic(t *testing.T) {
	b := retryBus(Config{})
	b.SetFaultModel(&fnFM{armed: true, babble: func(cycle int64, master int) (int, int, bool) {
		if master == 0 && cycle >= 10 && cycle < 15 {
			return 2, 0, true
		}
		return 0, 0, false
	}})
	if err := b.Run(40); err != nil {
		t.Fatal(err)
	}
	col := b.Collector()
	if got := col.Messages(0); got != 5 {
		t.Fatalf("babbled messages completed = %d, want 5", got)
	}
	if got := col.Words(0); got != 10 {
		t.Fatalf("babbled words = %d, want 10", got)
	}
}

// TestDisarmedModelKeepsFastPath is the fast-forward eligibility table
// for the resilience machinery: no model, a disarmed or armed model, the
// watchdog and the starvation detector all keep the event engine; only
// the cycles inside a babble window run on the per-cycle loop. Every row
// must also fingerprint exactly as the naive loop.
func TestDisarmedModelKeepsFastPath(t *testing.T) {
	quiet := func() FaultModel { return &fnFM{armed: true} }
	babbler := func(from, to int64) *fnFM {
		return &fnFM{armed: true, babbleFrom: from, babbleTo: to,
			babble: func(cycle int64, master int) (int, int, bool) {
				return 2, 0, master == 0 && cycle >= from && (to == 0 || cycle < to) && cycle%3 == 0
			}}
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		fm     func() FaultModel
		wantFF bool
	}{
		{"no model", Config{}, nil, true},
		{"disarmed model", Config{}, func() FaultModel { return &fnFM{} }, true},
		{"armed model", Config{}, quiet, true},
		{"closed babble window", Config{}, func() FaultModel { return babbler(100, 300) }, true},
		{"babble window from 0, never closing", Config{}, func() FaultModel { return babbler(0, 0) }, false},
		{"watchdog", Config{SplitTimeout: 10}, nil, true},
		{"starvation detector", Config{StarvationThreshold: 10}, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(disable bool) *Bus {
				b := retryBus(tc.cfg)
				b.DisableFastForward = disable
				if tc.fm != nil {
					b.SetFaultModel(tc.fm())
				}
				if !b.fastForwardable() {
					t.Fatal("resilience config disqualified the fast path")
				}
				b.Inject(0, 40, 0)
				if err := b.Run(1000); err != nil {
					t.Fatal(err)
				}
				return b
			}
			fast, naive := run(false), run(true)
			if ff := fast.FastForwarded(); (ff > 0) != tc.wantFF {
				t.Errorf("fast-forwarded %d cycles, want fast-forward %v", ff, tc.wantFF)
			}
			if f, n := fast.Collector().Fingerprint(), naive.Collector().Fingerprint(); f != n {
				t.Errorf("fingerprint: fast %#x, naive %#x", f, n)
			}
		})
	}
}

// TestDisarmAfterArmedRun is the regression test for a stale fault
// model: after an armed Run, disarming (or detaching) the model must
// stop every fault draw on both engines, and a backoff the armed Run
// left behind must still hold its master off the bus on the fast path —
// also across a dead gap, when every master is backing off.
func TestDisarmAfterArmedRun(t *testing.T) {
	for _, tc := range []struct {
		name           string
		detach, allOff bool
	}{
		{"disarm", false, false},
		{"detach", true, false},
		{"disarm, all backing off", false, true},
		{"detach, all backing off", true, true},
	} {
		run := func(disable bool) (*Bus, int) {
			b := New(Config{RetryBackoff: 40})
			b.DisableFastForward = disable
			b.AddMaster("m0", &depthGen{satGen{words: 5}}, MasterOpts{})
			b.AddMaster("m1", &depthGen{satGen{words: 3}}, MasterOpts{})
			b.AddSlave("mem", SlaveOpts{})
			b.SetArbiter(fixedArb{words: 8})
			draws := 0
			fm := &fnFM{armed: true, err: func(cycle int64, master, _ int) bool {
				draws++
				return (tc.allOff || master == 0) && (cycle%97 == 0 || cycle >= 990)
			}}
			b.SetFaultModel(fm)
			if err := b.Run(1000); err != nil {
				t.Fatal(err)
			}
			armedDraws := draws
			if tc.detach {
				b.SetFaultModel(nil)
			} else {
				fm.armed = false
			}
			if err := b.Run(1000); err != nil {
				t.Fatal(err)
			}
			return b, draws - armedDraws
		}
		fast, after := run(false)
		naive, _ := run(true)
		if after != 0 {
			t.Errorf("%s: %d fault draws after disarm", tc.name, after)
		}
		if fast.FastForwarded() == 0 {
			t.Errorf("%s: fast bus never fast-forwarded", tc.name)
		}
		if f, n := fast.Collector().Fingerprint(), naive.Collector().Fingerprint(); f != n {
			t.Errorf("%s: fingerprint fast %#x, naive %#x", tc.name, f, n)
		}
		for m := 0; m < 2; m++ {
			if f, n := fast.Collector().Retries(m), naive.Collector().Retries(m); f != n {
				t.Errorf("%s: master %d retries fast %d, naive %d", tc.name, m, f, n)
			}
		}
	}
}

// TestDisarmedFingerprintUnchanged proves the three "clean" shapes — no
// model, a disarmed model, and an armed model that never fires — leave
// the statistics fingerprint byte-identical.
func TestDisarmedFingerprintUnchanged(t *testing.T) {
	run := func(fm FaultModel) uint64 {
		b := New(Config{})
		b.AddMaster("m0", &satGen{words: 5, slave: 0}, MasterOpts{})
		b.AddMaster("m1", &satGen{words: 3, slave: 0}, MasterOpts{})
		b.AddSlave("mem", SlaveOpts{WaitStates: 1})
		b.SetArbiter(fixedArb{words: 8})
		if fm != nil {
			b.SetFaultModel(fm)
		}
		if err := b.Run(5000); err != nil {
			t.Fatal(err)
		}
		return b.Collector().Fingerprint()
	}
	base := run(nil)
	if got := run(&fnFM{armed: false}); got != base {
		t.Fatalf("disarmed model changed fingerprint: %x != %x", got, base)
	}
	if got := run(&fnFM{armed: true}); got != base {
		t.Fatalf("armed-but-quiet model changed fingerprint: %x != %x", got, base)
	}
}
