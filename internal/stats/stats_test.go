package stats

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestCollectorBandwidthFractions(t *testing.T) {
	c := NewCollector(2)
	c.AdvanceCycles(100)
	for i := 0; i < 30; i++ {
		c.WordTransferred(0)
	}
	for i := 0; i < 50; i++ {
		c.WordTransferred(1)
	}
	if got := c.BandwidthFraction(0); math.Abs(got-0.30) > 1e-12 {
		t.Fatalf("bw[0] = %v", got)
	}
	if got := c.BandwidthFraction(1); math.Abs(got-0.50) > 1e-12 {
		t.Fatalf("bw[1] = %v", got)
	}
	if got := c.Utilization(); math.Abs(got-0.80) > 1e-12 {
		t.Fatalf("utilization = %v", got)
	}
	if c.TotalWords() != 80 {
		t.Fatalf("total words = %d", c.TotalWords())
	}
}

func TestCollectorZeroCycles(t *testing.T) {
	c := NewCollector(1)
	if c.BandwidthFraction(0) != 0 || c.Utilization() != 0 {
		t.Fatal("zero-cycle collector must report zero fractions")
	}
}

func TestPerWordLatency(t *testing.T) {
	c := NewCollector(1)
	// A 4-word message arriving at cycle 10 whose last word moves at
	// cycle 17: latency 8 cycles over 4 words = 2 cycles/word.
	c.MessageCompleted(0, 4, 10, 17)
	if got := c.PerWordLatency(0); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("per-word latency = %v", got)
	}
	// Add a second message: 2 words, arrival 20, completion 23 -> 4
	// cycles over 2 words. Aggregate: (8+4)/(4+2) = 2.
	c.MessageCompleted(0, 2, 20, 23)
	if got := c.PerWordLatency(0); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("aggregate per-word latency = %v", got)
	}
	if got := c.AvgMessageLatency(0); math.Abs(got-6.0) > 1e-12 {
		t.Fatalf("avg message latency = %v", got)
	}
	if c.MaxMessageLatency(0) != 8 {
		t.Fatalf("max message latency = %d", c.MaxMessageLatency(0))
	}
}

func TestPerWordLatencyNaNWhenIdle(t *testing.T) {
	c := NewCollector(2)
	c.MessageCompleted(0, 1, 0, 0)
	if !math.IsNaN(c.PerWordLatency(1)) {
		t.Fatal("idle master latency must be NaN")
	}
	if !math.IsNaN(c.AvgWait(1)) {
		t.Fatal("idle master wait must be NaN")
	}
}

func TestWaitAccounting(t *testing.T) {
	c := NewCollector(1)
	c.MessageStarted(0, 10, 14)
	c.MessageCompleted(0, 2, 10, 15)
	c.MessageStarted(0, 20, 20)
	c.MessageCompleted(0, 2, 20, 21)
	if got := c.AvgWait(0); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("avg wait = %v", got)
	}
}

func TestMaxStartWait(t *testing.T) {
	c := NewCollector(2)
	c.MessageStarted(0, 10, 14)
	c.MessageStarted(0, 20, 21)
	if got := c.MaxStartWait(0); got != 4 {
		t.Fatalf("max start wait = %d, want 4", got)
	}
	if got := c.MaxStartWait(1); got != 0 {
		t.Fatalf("idle master max start wait = %d, want 0", got)
	}
}

// TestMaxStartWaitNotFingerprinted pins the compatibility contract: the
// max-start-wait accumulator is excluded from Fingerprint, so collectors
// that differ only in it (same waitSum, different worst single wait)
// hash equal — and fingerprints recorded before the accumulator existed
// stay valid.
func TestMaxStartWaitNotFingerprinted(t *testing.T) {
	a, b := NewCollector(1), NewCollector(1)
	// Same total wait (8 cycles over two messages), different maxima.
	a.MessageStarted(0, 0, 5)
	a.MessageStarted(0, 0, 3)
	b.MessageStarted(0, 0, 4)
	b.MessageStarted(0, 0, 4)
	if a.MaxStartWait(0) == b.MaxStartWait(0) {
		t.Fatal("test needs collectors with different max start waits")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("max start wait leaked into the fingerprint")
	}
}

func TestGrantsCounting(t *testing.T) {
	c := NewCollector(2)
	c.Granted(0)
	c.Granted(0)
	c.Granted(1)
	if c.Grants(0) != 2 || c.Grants(1) != 1 {
		t.Fatal("grant counts wrong")
	}
}

func TestCollectorPanicsOnZeroMasters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCollector(0) did not panic")
		}
	}()
	NewCollector(0)
}

func TestHistogramMoments(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Mean()-3) > 1e-12 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if math.Abs(h.Variance()-2.5) > 1e-12 {
		t.Fatalf("variance = %v", h.Variance())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if !math.IsNaN(h.Mean()) || !math.IsNaN(h.Variance()) || !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram must report NaN")
	}
	if h.String() != "histogram{empty}" {
		t.Fatalf("String = %q", h.String())
	}
	if h.Sparkline(10) != "" {
		t.Fatal("empty sparkline should be empty")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i) / 10) // 0.1 .. 100.0
	}
	med := h.Quantile(0.5)
	if med < 45 || med > 55 {
		t.Fatalf("p50 = %v", med)
	}
	p99 := h.Quantile(0.99)
	if p99 < 95 || p99 > 100.5 {
		t.Fatalf("p99 = %v", p99)
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Fatal("quantile extremes must match min/max")
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	h := NewHistogram()
	h.Add(math.NaN())
	if h.Count() != 0 {
		t.Fatal("NaN sample counted")
	}
}

// TestHistogramUnderflowBucket is the regression test for negative
// samples: Add used to fold them into bucket 0 (int64 truncation maps
// small negatives there), silently dragging quantiles toward zero and
// hiding the upstream accounting bug that produced them. They must land
// in the dedicated underflow counter instead, stay out of every value
// bucket, and still shift quantiles consistently with Count.
func TestHistogramUnderflowBucket(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 50; i++ {
		h.Add(-5)
	}
	for i := 0; i < 50; i++ {
		h.Add(10)
	}
	if h.Underflow() != 50 {
		t.Fatalf("underflow %d, want 50", h.Underflow())
	}
	if h.Count() != 100 {
		t.Fatalf("count %d, want 100", h.Count())
	}
	if h.Min() != -5 {
		t.Fatalf("min %v, want -5 (extrema must keep the evidence)", h.Min())
	}
	// Pre-fix, the 50 negative samples occupied bucket 0 and p50 came
	// out as 0.125; with them below every bucket, p50 sits in the
	// bucket holding the value-10 samples.
	if p50 := h.Quantile(0.5); math.Abs(p50-10.125) > 0.001 {
		t.Fatalf("p50 %v, want 10.125", p50)
	}
	// Quantiles inside the underflow mass resolve to the minimum.
	if p25 := h.Quantile(0.25); p25 != -5 {
		t.Fatalf("p25 %v, want -5", p25)
	}
	if s := h.String(); !strings.Contains(s, "underflow=50") {
		t.Fatalf("summary hides underflow: %s", s)
	}
}

// TestHistogramUnderflowReachesFingerprint proves a recorded negative
// sample is visible to the fingerprint (the golden corpus pins the
// complementary property: clean histograms kept their pre-counter
// fingerprints because the marker is only mixed when armed).
func TestHistogramUnderflowReachesFingerprint(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Add(3)
	b.Add(3)
	if a.fingerprint(12345) != b.fingerprint(12345) {
		t.Fatal("identical histograms fingerprint differently")
	}
	b.Add(-1)
	a.Add(-1)
	if a.fingerprint(12345) != b.fingerprint(12345) {
		t.Fatal("identical underflowed histograms fingerprint differently")
	}
	b.Add(-1)
	if a.fingerprint(12345) == b.fingerprint(12345) {
		t.Fatal("extra underflow sample invisible to the fingerprint")
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram()
	h.Add(1e9)
	h.Add(1.0)
	if h.Count() != 2 {
		t.Fatal("overflow sample lost from count")
	}
	if h.Max() != 1e9 {
		t.Fatal("overflow sample lost from max")
	}
}

// TestHistogramHugeSamplesOverflow is the regression test for samples
// whose bucket index does not fit an int64: Add used to convert before
// range-checking, so +Inf or 3e18 landed in bucket math.MinInt64, a
// quantile came out near -2.3e18 and the collector's own snapshot failed
// to decode. They must count as overflow like any other sample beyond
// the range.
func TestHistogramHugeSamplesOverflow(t *testing.T) {
	c := NewCollector(1)
	h := c.hist[0]
	for _, v := range []float64{2, 3, math.Inf(1), 3e18, 5} {
		h.Add(v)
	}
	var got []float64
	h.EachBucket(func(v float64, n int64) { got = append(got, v, float64(n)) })
	if want := []float64{2.125, 1, 3.125, 1, 5.125, 1, maxBucket / bucketsPerUnit, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets (value, count...) %v, want %v", got, want)
	}
	for _, q := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		if v := h.Quantile(q); !(v >= h.Min() && v <= h.Max()) {
			t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, v, h.Min(), h.Max())
		}
	}
	enc := c.EncodeSnapshot()
	dec, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("snapshot of a collector with huge samples: %v", err)
	}
	if !bytes.Equal(dec.EncodeSnapshot(), enc) {
		t.Fatal("re-encoded snapshot differs from original")
	}
}

func TestHistogramSparkline(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Add(1)
	}
	h.Add(10)
	s := h.Sparkline(20)
	if len(s) != 20 {
		t.Fatalf("sparkline width %d", len(s))
	}
	if !strings.Contains(s, "@") {
		t.Fatalf("peak mark missing: %q", s)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowValues("beta", 2.5)
	out := tb.String()
	for _, want := range []string{"Demo", "name", "alpha", "beta", "2.50", "----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, headers, separator, two rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestFigureTable(t *testing.T) {
	f := NewFigure("Latency", "class", "cycles/word")
	a := f.AddSeries("tdma")
	b := f.AddSeries("lottery")
	a.Add("T1", 3.5)
	a.Add("T2", 8.55)
	b.Add("T1", 1.2)
	b.Add("T2", 1.7)
	out := f.String()
	for _, want := range []string{"Latency", "class", "tdma", "lottery", "8.55", "1.70", "T2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureRaggedSeries(t *testing.T) {
	f := NewFigure("X", "x", "y")
	a := f.AddSeries("a")
	f.AddSeries("b") // empty series
	a.Add("p", 1)
	out := f.String()
	if !strings.Contains(out, "p") {
		t.Fatalf("ragged figure render failed:\n%s", out)
	}
}
