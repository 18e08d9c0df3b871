package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Snapshot format: a versioned, canonical binary encoding of a finished
// Collector that round-trips bit-identically — the value type of the
// content-addressed result cache (internal/cache). Canonical means one
// collector state has exactly one encoding: counters are minimal
// varints, floats are stored as their IEEE-754 bit patterns (so Welford
// accumulators and ±Inf extrema survive exactly), histogram buckets are
// emitted in ascending key order, and the encoding ends with the
// collector's Fingerprint. Ascending is the order Histogram stores its
// buckets in (a dense prefix, then the sorted tail), so the encoder
// walks the storage without sorting and the decoder fills it in the
// order the keys arrive. DecodeSnapshot recomputes the fingerprint
// from the reconstructed state and rejects any mismatch, so a corrupted
// snapshot can never decode into a silently wrong result.
//
//	"LBSC" | version (1 byte) | n | cycles | busy
//	then per master: words control messages latencySum completedWords
//	                 waitSum maxMsgLat grants maxStartWait
//	                 retries aborts timeouts errorWords drops
//	                 starveEvents starveCycles maxWait
//	                 histogram: count meanBits m2Bits minBits maxBits
//	                            overflow underflow nBuckets
//	                            nBuckets × (keyGap, count)
//	finally: Fingerprint | checksum
//
// Version 2 field encodings:
//
//   - every counter (n, cycles, busy, the 17 per-master counters and the
//     histogram's count, overflow and underflow) is a zigzag varint
//     (encoding/binary's Varint);
//   - nBuckets, keyGap and a bucket's count are uvarints; keyGap is
//     key − previous key − 1 (the first bucket's previous key is −1), so
//     ascending keys are structural and small gaps cost one byte;
//   - the four float bit patterns, the Fingerprint and the checksum are
//     fixed 8-byte little-endian words.
//
// A varint must be minimal (a multi-byte varint may not end in a 0x00
// byte), so each collector has exactly one accepted encoding. A
// 100k-cycle replica of the sample system encodes to 2–5 KB, about a
// seventh of version 1, which stored every integer as an 8-byte word. The trailing checksum is FNV-1a over
// every preceding byte: it covers the fields the collector Fingerprint
// deliberately leaves out (maxStartWait always; the resilience counters
// on fault-free runs), so a flipped bit anywhere in the snapshot is
// detected.

// snapshotMagic identifies a collector snapshot ("LotteryBus Stats
// Collector").
const snapshotMagic = "LBSC"

// SnapshotVersion is the current snapshot format version. Decoding any
// other version fails with ErrSnapshotVersion, which the cache treats
// as a miss (evict and resimulate) — never a silent misread.
const SnapshotVersion = 2

// snapshotMaxMasters bounds the master count a snapshot may claim,
// protecting decoders from allocating on a corrupted header. The bus
// facade caps systems at 64 masters; 1<<16 leaves generous headroom.
const snapshotMaxMasters = 1 << 16

// Snapshot decode errors. All of them mean "this is not a usable
// snapshot"; they are distinguished so tests and eviction logs can say
// why.
var (
	ErrSnapshotMagic     = errors.New("stats: not a collector snapshot (bad magic)")
	ErrSnapshotVersion   = errors.New("stats: unsupported snapshot version")
	ErrSnapshotTruncated = errors.New("stats: truncated snapshot")
	ErrSnapshotCorrupt   = errors.New("stats: corrupt snapshot")
)

// EncodeSnapshot serializes the collector into the canonical snapshot
// format. The encoding is a pure function of the collector state:
// identical collectors produce identical bytes, which is what lets the
// result cache (and its CI smoke tests) compare cold and warm runs by
// byte equality. The buffer is sized exactly (len == cap), so the
// cache's memory layer holds no slack.
func (c *Collector) EncodeSnapshot() []byte {
	size := len(snapshotMagic) + 1 + varintLen(int64(c.n)) + varintLen(c.cycles) + varintLen(c.busy) + 2*8
	for m := 0; m < c.n; m++ {
		for _, p := range c.snapshotCounters(m) {
			size += varintLen(*p)
		}
		size += c.hist[m].snapshotSize()
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapshotMagic...)
	buf = append(buf, SnapshotVersion)
	buf = binary.AppendVarint(buf, int64(c.n))
	buf = binary.AppendVarint(buf, c.cycles)
	buf = binary.AppendVarint(buf, c.busy)
	for m := 0; m < c.n; m++ {
		for _, p := range c.snapshotCounters(m) {
			buf = binary.AppendVarint(buf, *p)
		}
		buf = c.hist[m].appendSnapshot(buf)
	}
	buf = appendU64(buf, c.Fingerprint())
	return appendU64(buf, fnvBytes(buf))
}

// snapshotCounters returns master m's 17 per-master counters in
// snapshot order: what EncodeSnapshot writes and DecodeSnapshot fills.
func (c *Collector) snapshotCounters(m int) [17]*int64 {
	return [17]*int64{
		&c.words[m], &c.control[m], &c.messages[m], &c.latencySum[m],
		&c.completedWords[m], &c.waitSum[m], &c.maxMsgLat[m], &c.grants[m],
		&c.maxStartWait[m], &c.retries[m], &c.aborts[m], &c.timeouts[m],
		&c.errorWords[m], &c.drops[m], &c.starveEvents[m], &c.starveCycles[m],
		&c.maxWait[m],
	}
}

// fnvBytes is FNV-1a over a byte slice.
func fnvBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// snapshotSize is the length of the histogram's appendSnapshot
// encoding.
func (h *Histogram) snapshotSize() int {
	size := varintLen(h.count) + 4*8 + varintLen(h.overflow) + varintLen(h.underflow) +
		uvarintLen(uint64(h.occupied))
	prev := int64(-1)
	h.each(func(k, c int64) {
		size += uvarintLen(uint64(k-prev-1)) + uvarintLen(uint64(c))
		prev = k
	})
	return size
}

// appendSnapshot appends the histogram's canonical encoding: scalars
// (floats as bit patterns) followed by the occupied buckets in
// ascending key order, the order the bucket storage walks in, each as
// its gap from the previous key and its count.
func (h *Histogram) appendSnapshot(buf []byte) []byte {
	buf = binary.AppendVarint(buf, h.count)
	buf = appendU64(buf, math.Float64bits(h.mean))
	buf = appendU64(buf, math.Float64bits(h.m2))
	buf = appendU64(buf, math.Float64bits(h.min))
	buf = appendU64(buf, math.Float64bits(h.max))
	buf = binary.AppendVarint(buf, h.overflow)
	buf = binary.AppendVarint(buf, h.underflow)
	buf = binary.AppendUvarint(buf, uint64(h.occupied))
	prev := int64(-1)
	h.each(func(k, c int64) {
		buf = binary.AppendUvarint(buf, uint64(k-prev-1))
		buf = binary.AppendUvarint(buf, uint64(c))
		prev = k
	})
	return buf
}

// DecodeSnapshot reconstructs a Collector from its snapshot encoding.
// It validates structure strictly (magic, version, minimal varints,
// exact length, bucket keys in range, counts positive) and then proves
// exactness: the reconstructed collector's Fingerprint must equal the
// fingerprint stored in the snapshot, or ErrSnapshotCorrupt is
// returned. A nil error therefore guarantees the returned collector is
// bit-identical to the one that was encoded.
func DecodeSnapshot(data []byte) (*Collector, error) {
	d := snapDecoder{buf: data}
	magic, err := d.bytes(len(snapshotMagic))
	if err != nil {
		return nil, err
	}
	if string(magic) != snapshotMagic {
		return nil, ErrSnapshotMagic
	}
	ver, err := d.bytes(1)
	if err != nil {
		return nil, err
	}
	if ver[0] != SnapshotVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrSnapshotVersion, ver[0], SnapshotVersion)
	}
	n, err := d.varint()
	if err != nil {
		return nil, err
	}
	if n <= 0 || n > snapshotMaxMasters {
		return nil, fmt.Errorf("%w: implausible master count %d", ErrSnapshotCorrupt, n)
	}
	c := NewCollector(int(n))
	if c.cycles, err = d.varint(); err != nil {
		return nil, err
	}
	if c.busy, err = d.varint(); err != nil {
		return nil, err
	}
	for m := 0; m < c.n; m++ {
		for _, p := range c.snapshotCounters(m) {
			if *p, err = d.varint(); err != nil {
				return nil, err
			}
		}
		if err := d.histogram(c.hist[m]); err != nil {
			return nil, err
		}
	}
	want, err := d.u64()
	if err != nil {
		return nil, err
	}
	sumStart := d.off
	sum, err := d.u64()
	if err != nil {
		return nil, err
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(d.buf)-d.off)
	}
	if got := fnvBytes(data[:sumStart]); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	if got := c.Fingerprint(); got != want {
		return nil, fmt.Errorf("%w: fingerprint mismatch (snapshot %016x, reconstructed %016x)",
			ErrSnapshotCorrupt, want, got)
	}
	return c, nil
}

// snapDecoder walks a snapshot buffer with bounds checking.
type snapDecoder struct {
	buf []byte
	off int
}

func (d *snapDecoder) bytes(n int) ([]byte, error) {
	if len(d.buf)-d.off < n {
		return nil, ErrSnapshotTruncated
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *snapDecoder) u64() (uint64, error) {
	b, err := d.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// uvarint reads one minimal uvarint: a value that fits in fewer bytes
// (a multi-byte encoding ending in 0x00) or overflows 64 bits is
// corruption, which keeps the encoding canonical.
func (d *snapDecoder) uvarint() (uint64, error) {
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 {
		d.off++
		return uint64(d.buf[d.off-1]), nil
	}
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if d.off+i >= len(d.buf) {
			return 0, ErrSnapshotTruncated
		}
		b := d.buf[d.off+i]
		if b < 0x80 {
			if b == 0 || (i == binary.MaxVarintLen64-1 && b > 1) {
				return 0, fmt.Errorf("%w: non-minimal or overflowing varint", ErrSnapshotCorrupt)
			}
			d.off += i + 1
			return v | uint64(b)<<(7*i), nil
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	return 0, fmt.Errorf("%w: overlong varint", ErrSnapshotCorrupt)
}

// varint reads one minimal zigzag varint.
func (d *snapDecoder) varint() (int64, error) {
	u, err := d.uvarint()
	return int64(u>>1) ^ -int64(u&1), err
}

// histogram decodes one histogram into h (fresh from NewHistogram).
func (d *snapDecoder) histogram(h *Histogram) error {
	var err error
	if h.count, err = d.varint(); err != nil {
		return err
	}
	var floats [4]uint64
	for i := range floats {
		if floats[i], err = d.u64(); err != nil {
			return err
		}
	}
	h.mean = math.Float64frombits(floats[0])
	h.m2 = math.Float64frombits(floats[1])
	h.min = math.Float64frombits(floats[2])
	h.max = math.Float64frombits(floats[3])
	if h.overflow, err = d.varint(); err != nil {
		return err
	}
	if h.underflow, err = d.varint(); err != nil {
		return err
	}
	nb, err := d.uvarint()
	if err != nil {
		return err
	}
	// Each bucket entry takes at least 2 bytes; a claimed count beyond
	// the remaining buffer is corruption, and checking before allocating
	// keeps a hostile header from forcing a giant allocation.
	if nb > uint64(len(d.buf)-d.off)/2 {
		return fmt.Errorf("%w: bucket count %d exceeds remaining data", ErrSnapshotCorrupt, nb)
	}
	// First pass: validate, and find the dense prefix the occupancy
	// allows — keys arrive ascending, so the dense buckets come first.
	start := d.off
	nDense, lastDense, lim := 0, int64(-1), denseLimit(int64(nb))
	key := int64(-1)
	for i := 0; i < int(nb); i++ {
		gap, err := d.uvarint()
		if err != nil {
			return err
		}
		if gap >= uint64(maxBucket-1-key) {
			return fmt.Errorf("%w: bucket key gap %d past the bucket range", ErrSnapshotCorrupt, gap)
		}
		key += int64(gap) + 1
		v, err := d.uvarint()
		if err != nil {
			return err
		}
		if v == 0 || v > math.MaxInt64 {
			return fmt.Errorf("%w: bucket count %d not positive", ErrSnapshotCorrupt, int64(v))
		}
		if key < lim {
			nDense, lastDense = i+1, key
		}
	}
	// Second pass over the validated buckets: fill the dense prefix in
	// place, then cut the rest into tail blocks.
	d.off = start
	h.occupied = int64(nb)
	if nDense > 0 {
		h.dense = make([]int64, lastDense+1)
	}
	key = -1
	next := func() (k, v int64) {
		// Validated above: neither read can fail.
		gap, _ := d.uvarint()
		cnt, _ := d.uvarint()
		key += int64(gap) + 1
		return key, int64(cnt)
	}
	for i := 0; i < nDense; i++ {
		k, v := next()
		h.dense[k] = v
	}
	if nTail := int(nb) - nDense; nTail > 0 {
		blocks := (nTail + tailBlock - 1) / tailBlock
		h.tail = make([][]bucket, 0, blocks)
		h.tailLast = make([]int64, 0, blocks)
		for i := 0; i < nTail; i += tailBlock {
			blk := make([]bucket, min(tailBlock, nTail-i))
			for j := range blk {
				blk[j].key, blk[j].count = next()
			}
			h.tail = append(h.tail, blk)
			h.tailLast = append(h.tailLast, key)
		}
	}
	return nil
}

// varintLen is the length of v's zigzag varint encoding.
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// appendU64 appends v little-endian.
func appendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}
