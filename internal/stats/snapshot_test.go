package stats

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
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

// edgeCollector holds the two extreme bucket keys, 0 and maxBucket-1:
// the largest key gap a snapshot can carry.
func edgeCollector() *Collector {
	c := NewCollector(1)
	c.hist[0].Add(0)
	c.hist[0].Add((maxBucket - 0.5) / bucketsPerUnit)
	return c
}

// snapSeeds is snapVariants plus a served job's collector (dense
// prefix and a sparse tail) and the edge collector.
func snapSeeds() map[string]*Collector {
	seeds := snapVariants()
	seeds["serve job"] = serveJobCollector()
	seeds["edge"] = edgeCollector()
	return seeds
}

// resum rewrites a snapshot's trailing checksum over its (edited)
// body, so a test edit is caught by the structural checks or not at
// all.
func resum(enc []byte) []byte {
	body := append([]byte(nil), enc[:len(enc)-8]...)
	return binary.LittleEndian.AppendUint64(body, fnvBytes(body))
}

// TestSnapshotRoundTrip proves encode/decode bit-identical: the decoded
// collector fingerprints equal and re-encodes to the same bytes, for
// fault-free, faulty, underflowing and empty collectors, a served
// job's and the edge collector alike.
func TestSnapshotRoundTrip(t *testing.T) {
	for name, c := range snapSeeds() {
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
		if len(enc) != cap(enc) {
			t.Fatalf("%s: snapshot len %d, cap %d; want an exactly sized buffer", name, len(enc), cap(enc))
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

// TestSnapshotSize bounds a served job's snapshot: version 1 spent
// about 27 KB on it, 16 bytes per occupied bucket.
func TestSnapshotSize(t *testing.T) {
	const limit = 8 << 10
	if enc := serveJobCollector().EncodeSnapshot(); len(enc) > limit {
		t.Fatalf("served job's snapshot is %d bytes, want at most %d", len(enc), limit)
	}
}

// splice replaces the byte at off with the bytes with and fixes up the
// checksum.
func splice(enc []byte, off int, with ...byte) []byte {
	return resum(append(append(append([]byte(nil), enc[:off]...), with...), enc[off+1:]...))
}

// overlong re-encodes the one-byte varint at off in two bytes: the same
// value with a 0x00 continuation.
func overlong(enc []byte, off int) []byte { return splice(enc, off, enc[off]|0x80, 0) }

// TestSnapshotRejectsNonCanonical proves the structural checks stand
// on their own: each edit below keeps the checksum valid (and, for the
// varints, the decoded values too), so only the check it targets can
// reject it.
func TestSnapshotRejectsNonCanonical(t *testing.T) {
	// One master, cycles = 5, empty histogram: "LBSC", the version, n
	// at offset 5, cycles at 6, and the bucket count the last byte
	// before the fingerprint and checksum.
	plain := NewCollector(1)
	plain.AdvanceCycles(5)
	enc := plain.EncodeSnapshot()
	if enc[6] != 10 {
		t.Fatalf("cycles byte %d, want zigzag(5) = 10", enc[6])
	}
	nb := len(enc) - 17
	if enc[nb] != 0 {
		t.Fatalf("bucket count byte %d, want 0", enc[nb])
	}
	if _, err := DecodeSnapshot(resum(enc)); err != nil {
		t.Fatalf("resum broke a valid snapshot: %v", err)
	}

	// The edge collector's second bucket gap is maxBucket-2, a 3-byte
	// uvarint followed by the count 1 and the trailer.
	edge := edgeCollector().EncodeSnapshot()
	gap := len(edge) - 16 - 1 - 3
	if got, n := binary.Uvarint(edge[gap:]); got != maxBucket-2 || n != 3 {
		t.Fatalf("edge gap %d (%d bytes), want %d in 3", got, n, maxBucket-2)
	}
	pastRange := append([]byte(nil), edge...)
	binary.PutUvarint(pastRange[gap:], maxBucket-1)

	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"overlong n", "non-minimal", overlong(enc, 5)},
		{"overlong cycles", "non-minimal", overlong(enc, 6)},
		{"overlong bucket count", "non-minimal", overlong(enc, nb)},
		{"eleven-byte varint", "overlong varint", splice(enc, 6, 0x85, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0)},
		{"varint past 64 bits", "non-minimal or overflowing", splice(enc, 6, 0x85, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02)},
		{"key gap past maxBucket", "past the bucket range", resum(pastRange)},
		// 16 trailer bytes follow the count: room for at most 8 buckets.
		{"bucket count past the data", "exceeds remaining data", splice(enc, nb, 9)},
		{"huge bucket count", "exceeds remaining data", splice(enc, nb, 0x80, 0x80, 0x80, 0x80, 0x01)},
	} {
		_, err := DecodeSnapshot(tc.data)
		if !errors.Is(err, ErrSnapshotCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want a corrupt-snapshot error containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecodeSnapshot fuzzes the decoder: it must never panic, and any
// input it accepts must re-encode to exactly the input bytes (the
// encoding is canonical, so decode∘encode is the identity on valid
// snapshots) and answer every histogram query without panicking.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, c := range snapSeeds() {
		enc := c.EncodeSnapshot()
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		mut := append([]byte(nil), enc...)
		mut[len(mut)/3] ^= 0x40
		f.Add(mut)
		ver := append([]byte(nil), enc...)
		ver[4] = SnapshotVersion + 1
		f.Add(ver)
		f.Add(overlong(enc, 5)) // the master count, stretched to two bytes
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
