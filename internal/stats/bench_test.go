package stats

import (
	"math"
	"testing"

	"lotterybus/internal/prng"
)

// serveJobCollector synthesizes the collector a served job's replica
// produces (sample system, 100k cycles): four masters, about 1,600
// occupied buckets, three of them with latency mass in the first few
// hundred cycles per word and one low-priority master whose latencies
// spread to a ~3,000-cycle tail.
func serveJobCollector() *Collector {
	src := prng.NewSplitMix64(1)
	exp := func(mean float64) func() float64 {
		return func() float64 { return -mean * math.Log(1-prng.Float64(src)) }
	}
	c := NewCollector(4)
	c.AdvanceCycles(100000)
	for m, shape := range []struct {
		msgs, words int
		perWord     func() float64
	}{
		{2500, 16, exp(14)},
		{1300, 16, exp(150)},
		{2000, 16, exp(6)},
		{450, 4, func() float64 { return 3000 * prng.Float64(src) }},
	} {
		for i := 0; i < shape.msgs; i++ {
			perWord := shape.perWord()
			arrival := int64(i) * 20
			completion := arrival + int64(perWord*float64(shape.words))
			c.Granted(m)
			c.MessageStarted(m, arrival, arrival)
			c.WordsTransferred(m, int64(shape.words))
			c.MessageCompleted(m, shape.words, arrival, completion)
		}
	}
	return c
}

var (
	benchDist Dist
	benchCol  *Collector
	benchSnap []byte
)

// BenchmarkHistogramAdd times one Add of a served job's latency sample
// into a histogram already holding that distribution.
func BenchmarkHistogramAdd(b *testing.B) {
	var samples []float64
	src := serveJobCollector()
	for m := 0; m < src.N(); m++ {
		src.hist[m].EachBucket(func(v float64, n int64) {
			for ; n > 0; n-- {
				samples = append(samples, v)
			}
		})
	}
	prng.Shuffle(prng.NewSplitMix64(2), samples)
	h := NewHistogram()
	for _, v := range samples {
		h.Add(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(samples[i%len(samples)])
	}
}

// BenchmarkHistogramSparseTail times one Add of an outlier into a
// histogram whose occupied buckets are too sparse for the dense range:
// 4000 keys 97 buckets apart, the shape of per-word latencies on a
// saturated bus, so every Add is a search of the sparse tail.
func BenchmarkHistogramSparseTail(b *testing.B) {
	samples := make([]float64, 4000)
	for j := range samples {
		samples[j] = float64(1000+97*j) / bucketsPerUnit
	}
	prng.Shuffle(prng.NewSplitMix64(3), samples)
	h := NewHistogram()
	for _, v := range samples {
		h.Add(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(samples[i%len(samples)])
	}
}

// BenchmarkSnapshotEncode times encoding a served job's collector, the
// cache's put path.
func BenchmarkSnapshotEncode(b *testing.B) {
	c := serveJobCollector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSnap = c.EncodeSnapshot()
	}
}

// BenchmarkSnapshotDecode times decoding a served job's snapshot,
// fingerprint check included: the cache's hit path.
func BenchmarkSnapshotDecode(b *testing.B) {
	enc := serveJobCollector().EncodeSnapshot()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := DecodeSnapshot(enc)
		if err != nil {
			b.Fatal(err)
		}
		benchCol = c
	}
}

// BenchmarkLatencyDist times the p50/p95/p99 summaries of all four
// masters, what rendering a served job's report reads.
func BenchmarkLatencyDist(b *testing.B) {
	c := serveJobCollector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for m := 0; m < c.N(); m++ {
			benchDist = c.LatencyDist(m)
		}
	}
}
