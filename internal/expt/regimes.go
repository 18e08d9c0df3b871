package expt

import (
	"fmt"
	"math"
	"strings"

	"lotterybus/internal/analytic"
	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/core"
	"lotterybus/internal/prng"
	"lotterybus/internal/runner"
	"lotterybus/internal/stats"
	"lotterybus/internal/traffic"
)

// The regimes experiment sweeps arbiter × traffic regime and lets the
// analytic classifier (internal/analytic) short-circuit every point it
// proves: saturated and idle points have oracle-proven closed forms, so
// only the mixed (busy Bernoulli) column is simulated. Options.NoAnalytic
// simulates everything instead and records the share error against the
// closed forms — the A/B that validates the short-circuit.

// regimeArbiters are the sweep's arbiter kinds (the analytic.Kind*
// vocabulary; all five have proven saturated closed forms).
var regimeArbiters = []string{
	analytic.KindLottery,
	analytic.KindDynamicLottery,
	analytic.KindPriority,
	analytic.KindRoundRobin,
	analytic.KindTDMA1,
}

// regimeTraffics are the sweep's traffic regimes: provably backlogged,
// provably silent, and the busy Bernoulli workload no closed form covers.
var regimeTraffics = []string{"saturated", "idle", "busy"}

// regimeWeights gives the four masters distinct weights so proportional
// splits are visible and the priority winner is unique.
var regimeWeights = []uint64{1, 2, 3, 4}

// RegimeRow is one sweep point of the regimes experiment.
type RegimeRow struct {
	Arbiter string
	Traffic string
	// Regime is the classifier's verdict for this point.
	Regime analytic.Regime
	// Simulated reports whether the row's numbers come from a run
	// (true) or from the closed form (false, short-circuited).
	Simulated bool
	// Shares are the per-master bandwidth fractions.
	Shares []float64
	// Utilization is the fraction of busy bus cycles (exactly 1 and 0
	// for proven saturated and idle points).
	Utilization float64
	// Tol is the oracle's share tolerance when the point is provable
	// (0 for mixed points).
	Tol float64
	// MaxErr is the largest |simulated − closed form| share, recorded
	// only when the point was both simulated and provable (the A/B);
	// NaN otherwise.
	MaxErr float64
}

// RegimesResult is the regimes experiment outcome.
type RegimesResult struct {
	Weights []uint64
	Rows    []RegimeRow
	// Skipped counts the points the classifier short-circuited;
	// Simulated the ones that ran.
	Skipped, Simulated int
}

// Table renders the sweep: one row per (arbiter, traffic) point with
// the classifier verdict, whether it simulated or used the closed form,
// the per-master shares, and the A/B share error when both exist.
func (r *RegimesResult) Table() *stats.Table {
	t := stats.NewTable("Regime classification and analytic short-circuit (weights 1:2:3:4)",
		"arbiter", "traffic", "regime", "source", "shares %", "util %", "A/B err (tol)")
	for _, row := range r.Rows {
		source := "closed form"
		if row.Simulated {
			source = "simulated"
		}
		shares := make([]string, len(row.Shares))
		for i, s := range row.Shares {
			shares[i] = fmt.Sprintf("%.1f", 100*s)
		}
		ab := "-"
		if !math.IsNaN(row.MaxErr) {
			ab = fmt.Sprintf("%.3f (%.2f)", row.MaxErr, row.Tol)
		}
		t.AddRow(row.Arbiter, row.Traffic, row.Regime.String(), source,
			strings.Join(shares, "/"), fmt.Sprintf("%.1f", 100*row.Utilization), ab)
	}
	return t
}

// regimeGen builds master i's generator for a traffic regime (nil for
// idle — a silent master).
func regimeGen(o Options, regime string, i int, tag string) (bus.Generator, error) {
	switch regime {
	case "saturated":
		return &traffic.Saturating{Words: busyMsgWords}, nil
	case "idle":
		return nil, nil
	case "busy":
		return busyGenerator(o, tag, i)
	default:
		return nil, fmt.Errorf("expt: unknown traffic regime %q", regime)
	}
}

// regimeArbiter builds one arbiter kind over the sweep weights, streams
// derived from the tag.
func regimeArbiter(o Options, kind string, weights []uint64, tag string) (bus.Arbiter, error) {
	switch kind {
	case analytic.KindLottery:
		return lotteryArbiter(o, weights, tag)
	case analytic.KindDynamicLottery:
		mgr, err := core.NewDynamicLottery(core.DynamicConfig{
			Masters: len(weights),
			Source:  prng.NewXorShift64Star(prng.Derive(o.Seed, tag+"/dynamic")),
		})
		if err != nil {
			return nil, err
		}
		return arb.NewDynamicLottery(mgr), nil
	case analytic.KindPriority:
		return arb.NewPriority(weights)
	case analytic.KindRoundRobin:
		return arb.NewRoundRobin(len(weights))
	case analytic.KindTDMA1:
		slots := make([]int, len(weights))
		for i, w := range weights {
			slots[i] = int(w)
		}
		return arb.NewTDMA(arb.ContiguousWheel(slots), len(weights), false)
	default:
		return nil, fmt.Errorf("expt: unknown arbiter kind %q", kind)
	}
}

// regimePoint reduces one sweep point to the classifier's vocabulary.
func regimePoint(kind, regime string, weights []uint64) analytic.Point {
	p := analytic.Point{
		Arbiter:  kind,
		Weights:  weights,
		MaxBurst: 16,
		Slaves:   []analytic.PointSlave{{}},
	}
	for range weights {
		m := analytic.PointMaster{Words: busyMsgWords}
		switch regime {
		case "saturated":
			m.Saturating = true
		case "idle":
			m.LoadKnown = true
		case "busy":
			m.LoadKnown, m.OfferedLoad = true, busyLoad
		}
		p.Masters = append(p.Masters, m)
	}
	return p
}

// simulateRegimePoint runs one sweep point and returns per-master shares
// and utilization.
func simulateRegimePoint(o Options, kind, regime, tag string) ([]float64, float64, error) {
	b := bus.New(bus.Config{MaxBurst: 16})
	for i := range regimeWeights {
		gen, err := regimeGen(o, regime, i, tag)
		if err != nil {
			return nil, 0, err
		}
		b.AddMaster(fmt.Sprintf("C%d", i+1), gen, bus.MasterOpts{Tickets: regimeWeights[i]})
	}
	b.AddSlave("shared-memory", bus.SlaveOpts{})
	a, err := regimeArbiter(o, kind, regimeWeights, tag)
	if err != nil {
		return nil, 0, err
	}
	b.SetArbiter(a)
	if err := b.Run(o.Cycles); err != nil {
		return nil, 0, err
	}
	return bandwidths(b.Collector()), b.Collector().Utilization(), nil
}

// RunRegimes sweeps arbiter × traffic regime, short-circuiting every
// point the classifier proves (unless Options.NoAnalytic) and simulating
// the rest.
func RunRegimes(o Options) (*RegimesResult, error) {
	o = o.fill()
	type pt struct{ kind, regime string }
	var points []pt
	for _, k := range regimeArbiters {
		for _, tr := range regimeTraffics {
			points = append(points, pt{k, tr})
		}
	}
	rows, err := runner.Map(o.workers(), len(points), func(i int) (RegimeRow, error) {
		p := points[i]
		tag := fmt.Sprintf("regimes/%s/%s", p.kind, p.regime)
		ap := regimePoint(p.kind, p.regime, regimeWeights)
		row := RegimeRow{
			Arbiter: p.kind,
			Traffic: p.regime,
			Regime:  analytic.Classify(ap),
			MaxErr:  math.NaN(),
		}
		var closed []float64
		switch row.Regime {
		case analytic.Saturated:
			shares, tol, err := analytic.SaturatedShares(ap)
			if err != nil {
				return row, err
			}
			closed, row.Tol = shares, tol
			row.Shares, row.Utilization = shares, 1
		case analytic.Idle:
			closed = make([]float64, len(regimeWeights))
			row.Shares, row.Tol = closed, 0
		}
		if closed != nil && !o.NoAnalytic {
			return row, nil // short-circuited: closed form stands in for the run
		}
		shares, util, err := simulateRegimePoint(o, p.kind, p.regime, tag)
		if err != nil {
			return row, err
		}
		row.Simulated = true
		row.Shares, row.Utilization = shares, util
		if closed != nil {
			maxErr := 0.0
			for i := range shares {
				if d := math.Abs(shares[i] - closed[i]); d > maxErr {
					maxErr = d
				}
			}
			row.MaxErr = maxErr
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &RegimesResult{Weights: regimeWeights, Rows: rows}
	for _, r := range rows {
		if r.Simulated {
			res.Simulated++
		} else {
			res.Skipped++
		}
	}
	return res, nil
}
