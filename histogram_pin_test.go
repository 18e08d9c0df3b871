package lotterybus_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"lotterybus/internal/simcfg"
)

// TestSampleRunBytesPinned pins what a served job hands back for the
// sample system: the snapshot bytes the result cache stores, the
// rendered report and every per-master latency quantile at full
// precision. Fingerprints alone do not pin these — a histogram change
// that kept the fingerprint could still move a quantile or reorder
// encoded buckets. The report and quantile constants were cut from the
// map-backed histogram; the snapshot column from snapshot format
// version 2.
func TestSampleRunBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		seed                uint64
		snap, report, dists uint64
	}{
		{seed: 42, snap: 0xa82404e2d037f581, report: 0x74b5c98735cce3b5, dists: 0xec261f33ad703fa8},
		{seed: 43, snap: 0xe7a96c075d06ddf2, report: 0x7e7dff3d3291abf4, dists: 0x3818f6c8468f29d2},
	} {
		cfg := simcfg.SampleConfig()
		cfg.Seed = tc.seed
		cfg.Cycles = 100000
		sys, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(cfg.Cycles); err != nil {
			t.Fatal(err)
		}
		col := sys.Collector()
		var dists string
		for m := 0; m < col.N(); m++ {
			dists += fmt.Sprintf("%d %v\n", m, col.LatencyDist(m))
		}
		got := [3]uint64{
			fnv1a(col.EncodeSnapshot()),
			fnv1a([]byte(sys.ReportFor(col).String())),
			fnv1a([]byte(dists)),
		}
		if want := [3]uint64{tc.snap, tc.report, tc.dists}; got != want {
			t.Errorf("seed %d: snapshot/report/quantile hashes %016x, want %016x", tc.seed, got, want)
		}
	}
}

func fnv1a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
