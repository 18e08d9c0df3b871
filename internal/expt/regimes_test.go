package expt

import (
	"math"
	"testing"

	"lotterybus/internal/analytic"
)

// TestRunRegimesShortCircuits proves the classifier fires exactly on the
// provable points: saturated and idle columns are served from closed
// forms, the busy column simulates.
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

// TestRunRegimesABWithinTolerance is the -no-analytic A/B: simulating
// the short-circuited points must reproduce the closed forms within the
// oracle tolerance the classifier advertises.
func TestRunRegimesABWithinTolerance(t *testing.T) {
	res, err := RunRegimes(Options{Cycles: 100000, NoAnalytic: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if !r.Simulated {
			t.Fatalf("%s/%s: not simulated under NoAnalytic", r.Arbiter, r.Traffic)
		}
		if r.Regime == analytic.Mixed {
			if !math.IsNaN(r.MaxErr) {
				t.Errorf("%s/%s: mixed point has a share error %v", r.Arbiter, r.Traffic, r.MaxErr)
			}
			continue
		}
		if math.IsNaN(r.MaxErr) || r.MaxErr > r.Tol {
			t.Errorf("%s/%s: simulated shares err %.4f exceed closed-form tolerance %.2f", r.Arbiter, r.Traffic, r.MaxErr, r.Tol)
		}
		if r.Regime == analytic.Saturated && r.Utilization < 0.95 {
			t.Errorf("%s/%s: saturated point only %.2f utilized", r.Arbiter, r.Traffic, r.Utilization)
		}
	}
	if res.Skipped != 0 {
		t.Errorf("NoAnalytic skipped %d points", res.Skipped)
	}
}
