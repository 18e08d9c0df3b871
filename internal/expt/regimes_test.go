package expt

import (
	"fmt"
	"math"
	"testing"

	"lotterybus/internal/analytic"
)

// TestRunRegimesShortCircuits proves the classifier fires exactly on the
// provable points: saturated and idle columns report closed forms, the
// busy column simulates.
func TestRunRegimesShortCircuits(t *testing.T) {
	res, err := RunRegimes(Options{Cycles: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(regimeArbiters)*len(regimeTraffics) {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		switch r.Traffic {
		case "saturated":
			if r.Regime != analytic.Saturated || r.Simulated {
				t.Errorf("%s/%s: regime %v simulated=%v, want proven saturated", r.Arbiter, r.Traffic, r.Regime, r.Simulated)
			}
			if r.Utilization != 1 {
				t.Errorf("%s/%s: closed-form utilization %v", r.Arbiter, r.Traffic, r.Utilization)
			}
		case "idle":
			if r.Regime != analytic.Idle || r.Simulated {
				t.Errorf("%s/%s: regime %v simulated=%v, want proven idle", r.Arbiter, r.Traffic, r.Regime, r.Simulated)
			}
		case "busy":
			if r.Regime != analytic.Mixed || !r.Simulated {
				t.Errorf("%s/%s: regime %v simulated=%v, want simulated mixed", r.Arbiter, r.Traffic, r.Regime, r.Simulated)
			}
		}
	}
	if want := len(regimeArbiters) * 2; res.Skipped != want {
		t.Errorf("skipped %d points, want %d", res.Skipped, want)
	}
}

// TestRunRegimesABWithinTolerance is the classifier's A/B: simulating
// every point RunRegimes answers in closed form must reproduce the
// closed-form shares within the oracle tolerance the row advertises.
func TestRunRegimesABWithinTolerance(t *testing.T) {
	o := Options{Cycles: 100000}.fill()
	res, err := RunRegimes(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Simulated {
			continue
		}
		tag := fmt.Sprintf("regimes/%s/%s", r.Arbiter, r.Traffic)
		shares, util, err := simulateRegimePoint(o, r.Arbiter, r.Traffic, tag)
		if err != nil {
			t.Fatal(err)
		}
		for i := range shares {
			if d := math.Abs(shares[i] - r.Shares[i]); !(d <= r.Tol) { // NaN fails too
				t.Errorf("%s/%s: master %d simulated share %.4f, closed form %.4f, err %.4f exceeds tolerance %.2f",
					r.Arbiter, r.Traffic, i, shares[i], r.Shares[i], d, r.Tol)
			}
		}
		if r.Regime == analytic.Saturated && util < 0.95 {
			t.Errorf("%s/%s: saturated point only %.2f utilized", r.Arbiter, r.Traffic, util)
		}
	}
}
