package stats

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// snapCollector synthesizes a collector with every accumulator class
// exercised: plain traffic, control beats, drops, an armed fault
// counter set when faults is true, histogram overflow, and (when
// negative is true) histogram underflow. Events are derived from a
// fixed LCG so the state is deterministic but not trivially regular.
func snapCollector(n int, faults, negative bool) *Collector {
	c := NewCollector(n)
	c.AdvanceCycles(int64(5000 * n))
	snapMessages(n, func(m, words int, arrival, start, completion int64) {
		c.Granted(m)
		c.MessageStarted(m, arrival, start)
		c.WordsTransferred(m, int64(words))
		c.MessageCompleted(m, words, arrival, completion)
	})
	for m := 0; m < n; m++ {
		c.ControlCycle(m)
		c.MessageDropped(m)
		// Push one sample into the overflow bucket.
		c.hist[m].Add(float64(maxBucket))
		if negative {
			c.hist[m].Add(-3.5)
		}
		if faults {
			c.Retry(m)
			c.Abort(m)
			c.SplitTimeout(m)
			c.ErrorWord(m)
			c.AddStarvedCycles(m, 1)
			c.WaitEnded(m, 2000, 1000)
			c.WaitObserved(m, 2500)
		}
	}
	return c
}

// snapMessages calls fn for each of snapCollector's messages: 40+m
// for master m, in master order.
func snapMessages(n int, fn func(m, words int, arrival, start, completion int64)) {
	s := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 33
	}
	for m := 0; m < n; m++ {
		for k := 0; k < 40+m; k++ {
			words := int(next()%32) + 1
			arrival := int64(next() % 4000)
			start := arrival + int64(next()%100)
			completion := start + int64(words) + int64(next()%50)
			fn(m, words, arrival, start, completion)
		}
	}
}

func snapVariants() map[string]*Collector {
	empty := NewCollector(2) // untouched: empty histograms, ±Inf extrema
	return map[string]*Collector{
		"plain":     snapCollector(4, false, false),
		"faulty":    snapCollector(3, true, false),
		"underflow": snapCollector(2, false, true),
		"single":    snapCollector(1, false, false),
		"empty":     empty,
	}
}

// TestSnapshotRoundTrip proves encode/decode bit-identical: the decoded
// collector fingerprints equal and re-encodes to the same bytes, for
// fault-free, faulty, underflowing and empty collectors alike.
func TestSnapshotRoundTrip(t *testing.T) {
	for name, c := range snapVariants() {
		enc := c.EncodeSnapshot()
		if !bytes.Equal(enc, c.EncodeSnapshot()) {
			t.Fatalf("%s: EncodeSnapshot is not deterministic", name)
		}
		dec, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("%s: DecodeSnapshot: %v", name, err)
		}
		if dec.Fingerprint() != c.Fingerprint() {
			t.Fatalf("%s: fingerprint changed across round trip: %016x != %016x",
				name, dec.Fingerprint(), c.Fingerprint())
		}
		if !bytes.Equal(dec.EncodeSnapshot(), enc) {
			t.Fatalf("%s: re-encoded snapshot differs from original", name)
		}
		// Fields outside the Fingerprint must round-trip too.
		for m := 0; m < c.N(); m++ {
			if dec.MaxStartWait(m) != c.MaxStartWait(m) {
				t.Fatalf("%s: maxStartWait[%d] lost: %d != %d",
					name, m, dec.MaxStartWait(m), c.MaxStartWait(m))
			}
			if dec.Drops(m) != c.Drops(m) {
				t.Fatalf("%s: drops[%d] lost: %d != %d", name, m, dec.Drops(m), c.Drops(m))
			}
		}
	}
}

// TestSnapshotEmptyHistogramExtrema pins the ±Inf extrema of an empty
// histogram across the round trip — the exact reason the snapshot is
// binary rather than JSON.
func TestSnapshotEmptyHistogramExtrema(t *testing.T) {
	c := NewCollector(1)
	c.AdvanceCycles(10)
	dec, err := DecodeSnapshot(c.EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	h := dec.LatencyHistogram(0)
	if !math.IsInf(h.min, 1) || !math.IsInf(h.max, -1) {
		t.Fatalf("empty-histogram extrema not preserved: min=%v max=%v", h.min, h.max)
	}
}

// TestSnapshotCorruption proves no corruption decodes: every
// truncation and every single-byte flip of a valid snapshot fails
// loudly, and header damage reports the right error class.
func TestSnapshotCorruption(t *testing.T) {
	enc := snapCollector(3, true, true).EncodeSnapshot()

	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeSnapshot(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xa5
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("flipped byte %d decoded silently", i)
		}
	}

	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := DecodeSnapshot(bad); !errors.Is(err, ErrSnapshotMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	bad = append([]byte(nil), enc...)
	bad[4] = SnapshotVersion + 1
	if _, err := DecodeSnapshot(bad); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("bad version: got %v", err)
	}
	if _, err := DecodeSnapshot(nil); !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("nil input: got %v", err)
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), enc...), 0)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("trailing byte: got %v", err)
	}
}

// FuzzDecodeSnapshot fuzzes the decoder: it must never panic, and any
// input it accepts must re-encode to exactly the input bytes (the
// encoding is canonical, so decode∘encode is the identity on valid
// snapshots) and answer every histogram query without panicking.
func FuzzDecodeSnapshot(f *testing.F) {
	edge := NewCollector(1)
	edge.hist[0].Add(0)
	edge.hist[0].Add((maxBucket - 1) / bucketsPerUnit)
	seeds := []*Collector{serveJobCollector(), edge}
	for _, c := range snapVariants() {
		seeds = append(seeds, c)
	}
	for _, c := range seeds {
		enc := c.EncodeSnapshot()
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		mut := append([]byte(nil), enc...)
		mut[len(mut)/3] ^= 0x40
		f.Add(mut)
		ver := append([]byte(nil), enc...)
		ver[4] = SnapshotVersion + 1
		f.Add(ver)
	}
	f.Add([]byte(snapshotMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(c.EncodeSnapshot(), data) {
			t.Fatalf("accepted snapshot does not re-encode to itself")
		}
		for m := 0; m < c.N(); m++ {
			h := c.LatencyHistogram(m)
			for _, q := range []float64{0, 0.5, 0.99, 1} {
				h.Quantile(q)
			}
			c.LatencyDist(m)
			h.EachBucket(func(float64, int64) {})
			h.Sparkline(16)
		}
	})
}
