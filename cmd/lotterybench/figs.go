package main

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"lotterybus/internal/expt"
	"lotterybus/internal/obs"
	"lotterybus/internal/prng"
	"lotterybus/internal/stats"
)

// section is one paperfigs section, run through its expt entry point.
type section struct {
	id   string
	span string
	run  func(o expt.Options) (any, error)
}

// sections lists every paperfigs section except the verification
// matrix ("check"), in paperfigs order.
func sections() []section {
	list := []struct {
		id  string
		run func(o expt.Options) (any, error)
	}{
		{"4", func(o expt.Options) (any, error) { return expt.Fig4(o) }},
		{"5", func(o expt.Options) (any, error) { return expt.Fig5(o) }},
		{"6a", func(o expt.Options) (any, error) { return expt.Fig6a(o) }},
		{"6b", func(o expt.Options) (any, error) { return expt.Fig6b(o) }},
		{"12a", func(o expt.Options) (any, error) { return expt.RunFig12a(o) }},
		{"12b", func(o expt.Options) (any, error) { return expt.RunFig12b(o) }},
		{"12b1", func(o expt.Options) (any, error) { return expt.RunFig12bOneLevel(o) }},
		{"12c", func(o expt.Options) (any, error) { return expt.RunFig12c(o) }},
		{"table1", func(o expt.Options) (any, error) { return expt.RunTable1(o) }},
		{"hw", func(expt.Options) (any, error) { return expt.RunHWComplexity(), nil }},
		{"gates", func(expt.Options) (any, error) { return expt.RunGateLevel() }},
		{"starvation", func(o expt.Options) (any, error) { return expt.RunStarvation(o) }},
		{"dynamic", func(o expt.Options) (any, error) { return expt.RunDynamicTickets(o) }},
		{"bridge", func(o expt.Options) (any, error) { return expt.RunBridge(o) }},
		{"slack", func(o expt.Options) (any, error) { return expt.RunSlackAblation(o) }},
		{"pipeline", func(o expt.Options) (any, error) { return expt.RunPipelineAblation(o) }},
		{"compensation", func(o expt.Options) (any, error) { return expt.RunCompensation(o) }},
		{"burst", func(o expt.Options) (any, error) { return expt.RunBurstAblation(o) }},
		{"models", func(o expt.Options) (any, error) { return expt.RunModelValidation(o) }},
		{"tail", func(o expt.Options) (any, error) { return expt.RunTailLatency(o) }},
		{"replay", func(o expt.Options) (any, error) { return expt.RunReplay(o) }},
		{"split", func(o expt.Options) (any, error) { return expt.RunSplitAblation(o) }},
		{"scale", func(o expt.Options) (any, error) { return expt.RunScalability(o) }},
		{"cmp64", func(o expt.Options) (any, error) { return expt.RunCMP64(o) }},
		{"adaptation", func(o expt.Options) (any, error) { return expt.RunAdaptation(o) }},
		{"wrr", func(o expt.Options) (any, error) { return expt.RunWRRComparison(o) }},
		{"regimes", func(o expt.Options) (any, error) { return expt.RunRegimes(o) }},
		{"degradation", func(o expt.Options) (any, error) { return expt.RunDegradation(o) }},
		{"babble", func(o expt.Options) (any, error) { return expt.RunBabble(o) }},
	}
	out := make([]section, len(list))
	for i, s := range list {
		out[i] = section{id: s.id, span: "expt." + s.id, run: s.run}
	}
	return out
}

// render writes every presentation a result has — figure, detail table,
// table, breakdown, text — in that order.
func render(w io.Writer, r any) error {
	n := 0
	if v, ok := r.(interface{ Figure() *stats.Figure }); ok {
		v.Figure().Render(w)
		n++
	}
	if v, ok := r.(interface{ DetailTable() *stats.Table }); ok {
		v.DetailTable().Render(w)
		n++
	}
	if v, ok := r.(interface{ Table() *stats.Table }); ok {
		v.Table().Render(w)
		n++
	}
	if v, ok := r.(interface{ BreakdownTable() *stats.Table }); ok {
		v.BreakdownTable().Render(w)
		n++
	}
	if v, ok := r.(fmt.Stringer); ok {
		io.WriteString(w, v.String())
		n++
	}
	if n == 0 {
		return fmt.Errorf("result %T has nothing to render", r)
	}
	return nil
}

// figsBench regenerates the paper: one operation is one pass over every
// section.
type figsBench struct {
	secs    []section
	opts    expt.Options
	mu      sync.Mutex
	digests map[int]string
}

func setupFigs(e *env) (*instance, error) {
	f := &figsBench{
		secs:    sections(),
		opts:    expt.Options{Cycles: e.sz.figsCycles, Seed: prng.Derive(e.seed, "figs"), Parallel: parallel},
		digests: map[int]string{},
	}
	warm := f.opts
	warm.Cycles /= e.sz.warmupDiv
	if _, err := f.pass(warm, nil, nil); err != nil {
		return nil, err
	}
	return &instance{
		clients: 1,
		minOps:  e.sz.minPasses,
		opSpan:  "figs.pass",
		op:      f.op,
		check:   f.check,
		close:   func() {},
	}, nil
}

// pass runs and renders every section once and returns the digest of
// the rendered output.
func (f *figsBench) pass(o expt.Options, tr *obs.Trace, parent *obs.Span) (string, error) {
	var buf bytes.Buffer
	for _, s := range f.secs {
		sp := tr.Start(s.span, parent)
		r, err := s.run(o)
		if err == nil {
			err = render(&buf, r)
		}
		sp.End()
		if err != nil {
			return "", fmt.Errorf("section %s: %w", s.id, err)
		}
	}
	return digestOf(buf.Bytes()), nil
}

func (f *figsBench) op(_, i int, tr *obs.Trace, parent *obs.Span) (time.Duration, error) {
	t0 := obs.Now()
	d, err := f.pass(f.opts, tr, parent)
	lat := obs.Now().Sub(t0)
	if err != nil {
		return lat, err
	}
	f.mu.Lock()
	f.digests[i] = d
	f.mu.Unlock()
	return lat, nil
}

// check requires every pass to render byte-identical output.
func (f *figsBench) check(n int) (string, []int, error) {
	return sameDigest(f.digests, n)
}

// sameDigest returns pass 0's digest and every pass whose digest differs
// from it; a missing pass 0 is an error.
func sameDigest(digests map[int]string, n int) (string, []int, error) {
	want, ok := digests[0]
	if !ok {
		return "", nil, fmt.Errorf("operation 0 produced no output")
	}
	var bad []int
	for i := 1; i < n; i++ {
		if d, ok := digests[i]; ok && d != want {
			bad = append(bad, i)
		}
	}
	return want, bad, nil
}
