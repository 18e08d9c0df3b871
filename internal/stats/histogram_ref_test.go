package stats

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"lotterybus/internal/prng"
)

// refHistogram is the map-backed histogram the dense layout replaced,
// kept verbatim as the reference: every walk copies and sorts the keys.
type refHistogram struct {
	count     int64
	mean      float64
	m2        float64
	min       float64
	max       float64
	buckets   map[int64]int64
	overflow  int64
	underflow int64
}

func newRefHistogram() *refHistogram {
	return &refHistogram{
		min:     math.Inf(1),
		max:     math.Inf(-1),
		buckets: make(map[int64]int64),
	}
}

func (h *refHistogram) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.count++
	d := v - h.mean
	h.mean += d / float64(h.count)
	h.m2 += d * (v - h.mean)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if v < 0 {
		h.underflow++
		return
	}
	b := int64(v * bucketsPerUnit)
	if b >= maxBucket {
		h.overflow++
		return
	}
	h.buckets[b]++
}

func (h *refHistogram) Mean() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.mean
}

func (h *refHistogram) StdDev() float64 {
	if h.count < 2 {
		return math.NaN()
	}
	return math.Sqrt(h.m2 / float64(h.count-1))
}

func (h *refHistogram) Quantile(q float64) float64 {
	if h.count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	keys := make([]int64, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	target := int64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	acc := h.underflow
	if acc > target {
		return h.min
	}
	for _, k := range keys {
		acc += h.buckets[k]
		if acc > target {
			return (float64(k) + 0.5) / bucketsPerUnit
		}
	}
	return h.max
}

func (h *refHistogram) EachBucket(fn func(value float64, count int64)) {
	keys := make([]int64, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fn((float64(k)+0.5)/bucketsPerUnit, h.buckets[k])
	}
	if h.overflow > 0 {
		fn(float64(maxBucket)/bucketsPerUnit, h.overflow)
	}
}

func (h *refHistogram) fingerprint(x uint64) uint64 {
	x = fnvMix(x, uint64(h.count))
	x = fnvMix(x, math.Float64bits(h.mean))
	x = fnvMix(x, math.Float64bits(h.m2))
	x = fnvMix(x, math.Float64bits(h.min))
	x = fnvMix(x, math.Float64bits(h.max))
	x = fnvMix(x, uint64(h.overflow))
	if h.underflow != 0 {
		x = fnvMix(x, 0x756e646572) // "under" marker
		x = fnvMix(x, uint64(h.underflow))
	}
	keys := make([]int64, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		x = fnvMix(x, uint64(k))
		x = fnvMix(x, uint64(h.buckets[k]))
	}
	return x
}

// appendSnapshot is the version-2 histogram encoding written from the
// format description, independently of the codec: varints by hand, and
// the keys from a sorted copy of the map.
func (h *refHistogram) appendSnapshot(buf []byte) []byte {
	uvarint := func(v uint64) {
		for v >= 0x80 {
			buf = append(buf, byte(v)|0x80)
			v >>= 7
		}
		buf = append(buf, byte(v))
	}
	zigzag := func(v int64) {
		if v < 0 {
			uvarint(2*uint64(-(v+1)) + 1)
		} else {
			uvarint(2 * uint64(v))
		}
	}
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(v>>(8*i)))
		}
	}
	zigzag(h.count)
	word(math.Float64bits(h.mean))
	word(math.Float64bits(h.m2))
	word(math.Float64bits(h.min))
	word(math.Float64bits(h.max))
	zigzag(h.overflow)
	zigzag(h.underflow)
	keys := make([]int64, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	uvarint(uint64(len(keys)))
	prev := int64(-1)
	for _, k := range keys {
		uvarint(uint64(k - prev - 1))
		uvarint(uint64(h.buckets[k]))
		prev = k
	}
	return buf
}

func (h *refHistogram) String() string {
	if h.count == 0 {
		return "histogram{empty}"
	}
	if h.underflow > 0 {
		return fmt.Sprintf("histogram{n=%d underflow=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p99=%.3f max=%.3f}",
			h.count, h.underflow, h.Mean(), h.StdDev(), h.min, h.Quantile(0.5), h.Quantile(0.99), h.max)
	}
	return fmt.Sprintf("histogram{n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p99=%.3f max=%.3f}",
		h.count, h.Mean(), h.StdDev(), h.min, h.Quantile(0.5), h.Quantile(0.99), h.max)
}

func (h *refHistogram) Sparkline(width int) string {
	if h.count == 0 || width <= 0 {
		return ""
	}
	lo := int64(h.min * bucketsPerUnit)
	hi := int64(h.max*bucketsPerUnit) + 1
	if hi <= lo {
		hi = lo + 1
	}
	cols := make([]int64, width)
	span := hi - lo
	for k, c := range h.buckets {
		col := int((k - lo) * int64(width) / span)
		if col < 0 {
			col = 0
		}
		if col >= width {
			col = width - 1
		}
		cols[col] += c
	}
	var peak int64
	for _, c := range cols {
		if c > peak {
			peak = c
		}
	}
	if peak == 0 {
		return strings.Repeat(" ", width)
	}
	marks := []byte(" .:-=+*#%@")
	var b strings.Builder
	for _, c := range cols {
		idx := int(c * int64(len(marks)-1) / peak)
		b.WriteByte(marks[idx])
	}
	return b.String()
}

// refQuantiles is the q grid the equivalence test compares, ascending
// so that one quantiles walk can answer all of it.
var refQuantiles = []float64{math.NaN(), -1, 0, 1e-6, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75,
	0.9, 0.95, 0.99, 0.999, 0.999999, 1, 2}

// requireRefEqual fails unless h answers every query exactly as r
// does, quantiles over the ascending grid qs.
func requireRefEqual(t *testing.T, what string, h *Histogram, r *refHistogram, qs []float64) {
	t.Helper()
	if len(h.tailLast) != len(h.tail) {
		t.Fatalf("%s: %d tail blocks, %d indexed", what, len(h.tail), len(h.tailLast))
	}
	for i, blk := range h.tail {
		if h.tailLast[i] != blk[len(blk)-1].key {
			t.Fatalf("%s: tail block %d ends at key %d, indexed as %d", what, i, blk[len(blk)-1].key, h.tailLast[i])
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	walked := make([]float64, len(qs))
	h.quantiles(qs, walked)
	for i, q := range qs {
		want := r.Quantile(q)
		if got := h.Quantile(q); !same(got, want) {
			t.Fatalf("%s: Quantile(%v) = %v, reference %v", what, q, got, want)
		}
		if !same(walked[i], want) {
			t.Fatalf("%s: one-walk quantile %v = %v, reference %v", what, q, walked[i], want)
		}
	}
	if got, want := h.fingerprint(fnvOffset), r.fingerprint(fnvOffset); got != want {
		t.Fatalf("%s: fingerprint %016x, reference %016x", what, got, want)
	}
	if !bytes.Equal(h.appendSnapshot(nil), r.appendSnapshot(nil)) {
		t.Fatalf("%s: snapshot bytes differ from the reference", what)
	}
	type pair struct {
		v float64
		n int64
	}
	var got, want []pair
	h.EachBucket(func(v float64, n int64) { got = append(got, pair{v, n}) })
	r.EachBucket(func(v float64, n int64) { want = append(want, pair{v, n}) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: EachBucket sequence differs from the reference", what)
	}
	for _, w := range []int{0, 1, 7, 40} {
		if got, want := h.Sparkline(w), r.Sparkline(w); got != want {
			t.Fatalf("%s: Sparkline(%d) = %q, reference %q", what, w, got, want)
		}
	}
	if got, want := h.String(), r.String(); got != want {
		t.Fatalf("%s: String() = %q, reference %q", what, got, want)
	}
}

// refStreams are the sample streams the equivalence test feeds both
// implementations.
func refStreams(t *testing.T) map[string][]float64 {
	streams := map[string][]float64{
		"single key":                {},
		"nan underflow overflow":    {math.NaN(), -1, 3, math.Copysign(0, -1), 1e9, 262144, 262143.99, math.NaN(), -1e300, 0.2, 3},
		"keys at 0 and maxBucket-1": {0, (maxBucket - 1) / bucketsPerUnit, 0.1, (maxBucket - 0.5) / bucketsPerUnit, 0},
		"heavy tail":                heavyTailSamples(prng.NewSplitMix64(7), 200000),
	}
	for i := 0; i < 1000; i++ {
		streams["single key"] = append(streams["single key"], 7.3)
	}
	// snapVariants' histograms: each master's message latencies per
	// word, then the overflow sample and, for the underflow variant,
	// the negative one. The fingerprint check below ties these streams
	// to snapCollector, so they cannot drift apart.
	for _, v := range []struct {
		name     string
		n        int
		negative bool
	}{{"plain", 4, false}, {"underflow", 2, true}, {"single", 1, false}} {
		per := make([][]float64, v.n)
		snapMessages(v.n, func(m, words int, arrival, _, completion int64) {
			per[m] = append(per[m], float64(completion-arrival+1)/float64(words))
		})
		col := snapCollector(v.n, false, v.negative)
		for m := range per {
			per[m] = append(per[m], float64(maxBucket))
			if v.negative {
				per[m] = append(per[m], -3.5)
			}
			h := NewHistogram()
			for _, x := range per[m] {
				h.Add(x)
			}
			if h.fingerprint(0) != col.hist[m].fingerprint(0) {
				t.Fatalf("snapVariants %s master %d: replayed stream does not match snapCollector", v.name, m)
			}
			streams[fmt.Sprintf("snapVariants %s master %d", v.name, m)] = per[m]
		}
	}
	return streams
}

// heavyTailSamples draws n per-word latencies shaped like a served
// job's: most mass in the first hundred cycles, and a Pareto tail of
// sparse outliers reaching past the bucket range into overflow.
func heavyTailSamples(src prng.Source, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		words := []int{1, 4, 16}[prng.Intn(src, 3)]
		lat := 1 + int64(-math.Log(1-prng.Float64(src))*float64(8*words))
		if prng.Intn(src, 20) == 0 {
			lat = int64(float64(16*words) / math.Pow(1-prng.Float64(src), 1.5))
		}
		out[i] = float64(lat) / float64(words)
	}
	return out
}

// TestHistogramMatchesReference proves the dense-plus-tail layout
// answers every query bit-identically to the map-backed reference:
// fed in two halves, checked after each, and also after the first half
// round-trips through a snapshot and keeps taking samples.
func TestHistogramMatchesReference(t *testing.T) {
	for name, stream := range refStreams(t) {
		h, r := NewHistogram(), newRefHistogram()
		half := len(stream) / 2
		for _, v := range stream[:half] {
			h.Add(v)
			r.Add(v)
		}
		requireRefEqual(t, name+" (first half)", h, r, refQuantiles)
		c := NewCollector(1)
		c.hist[0] = h
		dec, err := DecodeSnapshot(c.EncodeSnapshot())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := dec.hist[0]
		for _, v := range stream[half:] {
			h.Add(v)
			d.Add(v)
			r.Add(v)
		}
		requireRefEqual(t, name, h, r, refQuantiles)
		requireRefEqual(t, name+" (decoded, then fed)", d, r, refQuantiles)
	}
}

// TestHistogramEveryKeyShuffled fills every bucket below maxBucket once,
// in shuffled order: the worst case for a layout that must keep its
// walks ascending. Add must stay cheap (no quadratic insertion), the
// dense slice must end up covering the range, and every answer must
// match the reference.
func TestHistogramEveryKeyShuffled(t *testing.T) {
	keys := make([]int, maxBucket)
	for k := range keys {
		keys[k] = k
	}
	prng.Shuffle(prng.NewSplitMix64(1), keys)
	h, r := NewHistogram(), newRefHistogram()
	for _, k := range keys {
		v := (float64(k) + 0.5) / bucketsPerUnit
		h.Add(v)
		r.Add(v)
	}
	if h.occupied != maxBucket || len(h.dense) != maxBucket || len(h.tail) != 0 {
		t.Fatalf("occupied %d, dense %d, tail blocks %d; want every key dense",
			h.occupied, len(h.dense), len(h.tail))
	}
	// Each reference quantile sorts a million keys; a short grid keeps
	// the test quick.
	requireRefEqual(t, "every key shuffled", h, r, []float64{0, 0.001, 0.5, 0.999, 1})
}
