package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Histogram is a streaming histogram over float64 samples with
// exact mean/variance tracking (Welford) and approximate quantiles via
// fixed-resolution buckets. The zero value is not usable; call
// NewHistogram.
type Histogram struct {
	count int64
	mean  float64
	m2    float64
	min   float64
	max   float64
	// A sample v >= 0 lands in bucket floor(v * bucketsPerUnit); values
	// beyond the range land in the overflow bucket. Buckets below
	// len(dense) are counted in place, where latency mass sits; an
	// occupied bucket at or above it is a sparse outlier kept in tail,
	// so every walk over the buckets is ascending without a sort.
	dense []int64
	// tail holds the occupied buckets at or above len(dense) in
	// ascending key order, split into blocks of at most 2*tailBlock so
	// inserting an outlier moves a block, not the whole tail.
	tail [][]bucket
	// tailLast[i] is the last key of tail[i]: the block search reads
	// this one contiguous slice instead of a cache line per block.
	tailLast []int64
	// occupied counts the buckets with a nonzero count, dense and tail;
	// it bounds len(dense) (see denseLimit).
	occupied int64
	overflow int64
	// underflow counts negative samples. No latency metric on this
	// simulator can legitimately be negative, so a nonzero underflow is
	// an accounting bug upstream; counting such samples separately
	// (instead of folding them into bucket 0, which silently skewed
	// quantiles) keeps the evidence visible — the invariant auditor in
	// package check flags it.
	underflow int64
}

// bucket is one occupied tail bucket.
type bucket struct{ key, count int64 }

// bucketsPerUnit gives 0.25-cycle latency resolution, ample for
// cycles/word metrics.
const bucketsPerUnit = 4

// maxBucket bounds the bucket index; samples above land in overflow.
const maxBucket = 1 << 20

// The dense slice never grows past denseLimit(occupied): denseMin
// counts for any histogram, denseRatio per occupied bucket beyond
// that. A dense count costs 8 bytes, so the dense slice stays within
// 32 bytes per occupied bucket (or 2 KB) and a tail entry costs 16,
// however far out the outliers lie.
const (
	denseMin   = 256
	denseRatio = 4
	tailBlock  = 64
)

func denseLimit(occupied int64) int64 { return max(denseMin, denseRatio*occupied) }

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		min: math.Inf(1),
		max: math.Inf(-1),
	}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
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
	// Range-check in float: converting a huge sample to int64 first
	// would wrap it into a negative bucket.
	if v >= maxBucket/bucketsPerUnit {
		h.overflow++
		return
	}
	k := int64(v * bucketsPerUnit)
	if k < int64(len(h.dense)) {
		if h.dense[k] == 0 {
			h.occupied++
		}
		h.dense[k]++
		return
	}
	h.addSparse(k)
}

// addSparse counts bucket k >= len(dense): it grows the dense slice
// over k when the occupancy allows, and otherwise counts k in the tail.
func (h *Histogram) addSparse(k int64) {
	i, j, found := h.findTail(k)
	if found {
		h.tail[i][j].count++
		return
	}
	h.occupied++
	// Growing at least twofold keeps the copies amortized O(1) per
	// bucket; a growth the occupancy does not allow yet waits in the
	// tail.
	if n := min(max(k+1, 2*int64(len(h.dense))), maxBucket); n <= denseLimit(h.occupied) {
		h.growDense(n)
		h.dense[k] = 1
		return
	}
	if len(h.tail) == 0 {
		h.tail = [][]bucket{{{k, 1}}}
		h.tailLast = []int64{k}
		return
	}
	blk := slices.Insert(h.tail[i], j, bucket{k, 1})
	if len(blk) == 2*tailBlock {
		hi := append([]bucket(nil), blk[tailBlock:]...)
		blk = blk[:tailBlock]
		h.tail = slices.Insert(h.tail, i+1, hi)
		h.tailLast = slices.Insert(h.tailLast, i+1, hi[len(hi)-1].key)
	}
	h.tail[i] = blk
	h.tailLast[i] = blk[len(blk)-1].key
}

// findTail locates key k in the tail: the block i and offset j that
// hold it, or where to insert it when found is false. Both steps are
// typed lower-bound searches, and both are branch-free: keys lie in
// [0, maxBucket), so key-k is negative exactly when key < k and its
// sign bit, spread by the shift, masks the step. A branch here would
// be mispredicted on half the probes of a random key.
func (h *Histogram) findTail(k int64) (i, j int, found bool) {
	if len(h.tail) == 0 {
		return 0, 0, false
	}
	// The first block whose last key is at least k, else the last block:
	// the answer is one of the len(h.tail) block indices.
	last := h.tailLast
	for n := len(last); n > 1; {
		half := n >> 1
		i += half & int((last[i+half-1]-k)>>63)
		n -= half
	}
	// The first key in that block at least k, else the block's end: one
	// of len(blk)+1 offsets.
	blk := h.tail[i]
	for n := len(blk) + 1; n > 1; {
		half := n >> 1
		j += half & int((blk[j+half-1].key-k)>>63)
		n -= half
	}
	return i, j, j < len(blk) && blk[j].key == k
}

// growDense widens the dense slice to n counts and moves the tail
// buckets below n into it.
func (h *Histogram) growDense(n int64) {
	d := make([]int64, n)
	copy(d, h.dense)
	h.dense = d
	drop := 0
	for _, blk := range h.tail {
		j := 0
		for ; j < len(blk) && blk[j].key < n; j++ {
			d[blk[j].key] = blk[j].count
		}
		if j < len(blk) {
			h.tail[drop] = blk[j:]
			break
		}
		drop++
	}
	h.tail = slices.Delete(h.tail, 0, drop)
	h.tailLast = slices.Delete(h.tailLast, 0, drop)
}

// each calls fn for every occupied bucket in ascending key order.
func (h *Histogram) each(fn func(key, count int64)) {
	for k, c := range h.dense {
		if c != 0 {
			fn(int64(k), c)
		}
	}
	for _, blk := range h.tail {
		for _, b := range blk {
			fn(b.key, b.count)
		}
	}
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int64 { return h.count }

// Underflow returns how many negative samples were recorded. Nonzero
// underflow indicates a latency-accounting bug in whatever fed the
// histogram.
func (h *Histogram) Underflow() int64 { return h.underflow }

// Mean returns the sample mean, or NaN when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.mean
}

// Variance returns the sample variance (n-1 denominator), or NaN with
// fewer than two samples.
func (h *Histogram) Variance() float64 {
	if h.count < 2 {
		return math.NaN()
	}
	return h.m2 / float64(h.count-1)
}

// StdDev returns the sample standard deviation.
func (h *Histogram) StdDev() float64 { return math.Sqrt(h.Variance()) }

// Min returns the smallest sample, or NaN when empty.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.min
}

// Max returns the largest sample, or NaN when empty.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.max
}

// Quantile returns an approximation of the q-quantile (0 <= q <= 1) at
// the histogram's bucket resolution, or NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	var v [1]float64
	h.quantiles([]float64{q}, v[:])
	return v[0]
}

// quantiles sets out[i] to Quantile(qs[i]) in one ascending walk over
// the buckets; qs must be ascending.
func (h *Histogram) quantiles(qs, out []float64) {
	next := 0
	// Underflow samples sit below every bucket; counting them first
	// keeps quantiles consistent with Count when negatives were fed.
	acc := h.underflow
	// settle answers, with v, the pending quantiles whose rank lies
	// within the acc samples walked so far (all of them when all is set).
	settle := func(v float64, all bool) {
		for ; next < len(qs); next++ {
			switch q := qs[next]; {
			case h.count == 0 || math.IsNaN(q):
				out[next] = math.NaN()
			case q <= 0:
				out[next] = h.min
			case q >= 1:
				out[next] = h.max
			case all || acc > min(int64(q*float64(h.count)), h.count-1):
				out[next] = v
			default:
				return
			}
		}
	}
	settle(h.min, false)
	h.each(func(k, c int64) {
		acc += c
		settle((float64(k)+0.5)/bucketsPerUnit, false)
	})
	settle(h.max, true)
}

// EachBucket calls fn for every occupied bucket in ascending value
// order, passing the bucket's midpoint value and its sample count, and
// finally the overflow bucket (if occupied) at the histogram's range
// cap. It is the batched export path the observability registry uses to
// re-bin a completed run's latency distribution.
func (h *Histogram) EachBucket(fn func(value float64, count int64)) {
	h.each(func(k, c int64) {
		fn((float64(k)+0.5)/bucketsPerUnit, c)
	})
	if h.overflow > 0 {
		fn(float64(maxBucket)/bucketsPerUnit, h.overflow)
	}
}

// fingerprint folds the histogram's exact state — count, the bit
// patterns of the Welford accumulators and extrema, the overflow count
// and every (bucket, count) pair in bucket order — into h.
func (h *Histogram) fingerprint(x uint64) uint64 {
	x = fnvMix(x, uint64(h.count))
	x = fnvMix(x, math.Float64bits(h.mean))
	x = fnvMix(x, math.Float64bits(h.m2))
	x = fnvMix(x, math.Float64bits(h.min))
	x = fnvMix(x, math.Float64bits(h.max))
	x = fnvMix(x, uint64(h.overflow))
	if h.underflow != 0 {
		// Mixed only when armed, behind a marker, so histograms that
		// never saw a negative sample (every correct run) keep the
		// fingerprint values they had before this counter existed.
		x = fnvMix(x, 0x756e646572) // "under" marker
		x = fnvMix(x, uint64(h.underflow))
	}
	h.each(func(k, c int64) {
		x = fnvMix(x, uint64(k))
		x = fnvMix(x, uint64(c))
	})
	return x
}

// String renders a compact summary.
func (h *Histogram) String() string {
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

// Sparkline renders the bucket distribution between min and max as a
// fixed-width ASCII bar chart for quick terminal inspection.
func (h *Histogram) Sparkline(width int) string {
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
	h.each(func(k, c int64) {
		col := int((k - lo) * int64(width) / span)
		if col < 0 {
			col = 0
		}
		if col >= width {
			col = width - 1
		}
		cols[col] += c
	})
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
