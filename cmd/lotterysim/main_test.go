package main

import (
	"context"
	"strings"
	"testing"

	"lotterybus/internal/simcfg"
)

// TestCheckRunsFullAudit pins that -check audits each replica's System
// with package check: a collector that counts an abort no master ever
// enqueued breaks message conservation, which only the full audit sees.
func TestCheckRunsFullAudit(t *testing.T) {
	cfg := simcfg.SampleConfig()
	cfg.Cycles = 20000
	reps, err := cfg.BuildReplicas()
	if err != nil {
		t.Fatal(err)
	}
	err = reps.Simulate(context.Background(), []int{0}, 1, func(sim *simcfg.Sim) error {
		if err := sim.Run(nil); err != nil {
			return err
		}
		if viol := sim.System.CheckInvariants(); len(viol) != 0 {
			t.Errorf("clean run reports %v", viol)
		}
		sim.System.Collector().Abort(0)
		viol := strings.Join(sim.System.CheckInvariants(), "\n")
		if !strings.Contains(viol, "message-conservation") {
			t.Errorf("phantom abort not caught; violations:\n%s", viol)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
