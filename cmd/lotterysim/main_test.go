package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"lotterybus/internal/simcfg"
)

// TestCheckRunsFullAudit pins that -check audits with package check on a
// config the lane engine would otherwise run: a collector that counts an
// abort no master ever enqueued breaks message conservation, which only
// the full audit sees.
func TestCheckRunsFullAudit(t *testing.T) {
	cfg := simcfg.SampleConfig()
	cfg.Cycles = 20000
	if !cfg.LaneEngine() {
		t.Fatal("sample config no longer selects the lane engine")
	}
	for _, audit := range []bool{false, true} {
		reps, err := buildReplicas(cfg, audit)
		if err != nil {
			t.Fatal(err)
		}
		err = reps.Simulate(context.Background(), []int{0}, 1, func(sim *simcfg.Sim) error {
			if want := map[bool]string{false: "lanes", true: "scalar"}[audit]; sim.Engine != want {
				t.Errorf("audit=%v: engine %s, want %s", audit, sim.Engine, want)
			}
			if err := sim.Run(nil); err != nil {
				return err
			}
			sys := sim.System()
			if !audit {
				return nil
			}
			if sys == nil {
				return errors.New("-check run has no scalar System to audit")
			}
			if viol := sys.CheckInvariants(); len(viol) != 0 {
				t.Errorf("clean run reports %v", viol)
			}
			sim.Collector(0).Abort(0)
			viol := strings.Join(sys.CheckInvariants(), "\n")
			if !strings.Contains(viol, "message-conservation") {
				t.Errorf("phantom abort not caught; violations:\n%s", viol)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
