package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"lotterybus/internal/simcfg"
)

// mainEnv makes the test binary run the command instead of the tests,
// so runMain can drive the real flag parsing and exit codes.
const mainEnv = "LOTTERYSIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

// runMain runs lotterysim with args in a child process and returns its
// stderr and exit code.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return stderr.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return stderr.String(), 0
}

// writeConfig writes cfg as a JSON file and returns its path.
func writeConfig(t *testing.T, cfg *simcfg.SimConfig) string {
	t.Helper()
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "system.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSeedZeroReplicas pins the replica seed rule: at seed 0 several
// replicas are rejected — also for a saturated config the analytic
// short-circuit would otherwise answer — while one replica runs.
func TestSeedZeroReplicas(t *testing.T) {
	sample := simcfg.SampleConfig()
	sample.Cycles = 2000
	saturated := &simcfg.SimConfig{
		Cycles: 2000, MaxBurst: 16,
		Slaves: []simcfg.SlaveConfig{{Name: "mem"}},
		Masters: []simcfg.MasterConfig{
			{Name: "a", Weight: 3, Traffic: simcfg.TrafficConfig{Kind: "saturating", MsgWords: 16}},
			{Name: "b", Weight: 1, Traffic: simcfg.TrafficConfig{Kind: "saturating", MsgWords: 16}},
		},
	}
	for name, cfg := range map[string]*simcfg.SimConfig{"sample": sample, "saturated": saturated} {
		cfg.Seed = 0
		path := writeConfig(t, cfg)
		if stderr, code := runMain(t, "-config", path, "-replicate", "2"); code == 0 || !strings.Contains(stderr, "seed") {
			t.Errorf("%s: seed 0 -replicate 2 exited %d with %q, want a seed rejection", name, code, stderr)
		}
		if stderr, code := runMain(t, "-config", path); code != 0 {
			t.Errorf("%s: seed 0 single replica exited %d: %s", name, code, stderr)
		}
	}
}

// TestNegativeReplicateIsUsageError pins that -replicate below zero is
// a usage error (exit 2), not a silent single replica; 0 still means 1.
func TestNegativeReplicateIsUsageError(t *testing.T) {
	cfg := simcfg.SampleConfig()
	cfg.Cycles = 2000
	path := writeConfig(t, cfg)
	if stderr, code := runMain(t, "-config", path, "-replicate", "-3"); code != 2 || !strings.Contains(stderr, "-replicate") {
		t.Errorf("-replicate -3 exited %d with %q, want usage error 2", code, stderr)
	}
	if stderr, code := runMain(t, "-config", path, "-replicate", "0"); code != 0 {
		t.Errorf("-replicate 0 exited %d: %s", code, stderr)
	}
}

// TestCheckRunsFullAudit pins that -check audits each replica's System
// with package check: a collector that counts an abort no master ever
// enqueued breaks message conservation, which only the full audit sees.
func TestCheckRunsFullAudit(t *testing.T) {
	cfg := simcfg.SampleConfig()
	cfg.Cycles = 20000
	reps, err := cfg.BuildReplicas(1)
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
