package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Snapshot format: a versioned, canonical binary encoding of a finished
// Collector that round-trips bit-identically — the value type of the
// content-addressed result cache (internal/cache). Canonical means one
// collector state has exactly one encoding: all integers are fixed-width
// little-endian, floats are stored as their IEEE-754 bit patterns (so
// Welford accumulators and ±Inf extrema survive exactly), histogram
// buckets are emitted in ascending key order, and the encoding ends with
// the collector's Fingerprint. Ascending is the order Histogram stores
// its buckets in (a dense prefix, then the sorted tail), so the encoder
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
//	                            nBuckets × (key, count)
//	finally: Fingerprint | checksum
//
// All multi-byte fields are uint64 little-endian. The trailing checksum
// is FNV-1a over every preceding byte: it covers the fields the
// collector Fingerprint deliberately leaves out (maxStartWait always;
// the resilience counters on fault-free runs), so a flipped bit
// anywhere in the snapshot is detected.

// snapshotMagic identifies a collector snapshot ("LotteryBus Stats
// Collector").
const snapshotMagic = "LBSC"

// SnapshotVersion is the current snapshot format version. Decoding any
// other version fails with ErrSnapshotVersion, which the cache treats
// as a miss (evict and resimulate) — never a silent misread.
const SnapshotVersion = 1

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
// byte equality.
func (c *Collector) EncodeSnapshot() []byte {
	// Exact size: header, trailer, and per master 17 counters, 8
	// histogram words and 16 bytes per occupied bucket.
	size := len(snapshotMagic) + 1 + 3*8 + 2*8
	for _, h := range c.hist {
		size += (17+8)*8 + 16*int(h.occupied)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapshotMagic...)
	buf = append(buf, SnapshotVersion)
	buf = appendU64(buf, uint64(c.n))
	buf = appendU64(buf, uint64(c.cycles))
	buf = appendU64(buf, uint64(c.busy))
	for m := 0; m < c.n; m++ {
		buf = appendU64(buf, uint64(c.words[m]))
		buf = appendU64(buf, uint64(c.control[m]))
		buf = appendU64(buf, uint64(c.messages[m]))
		buf = appendU64(buf, uint64(c.latencySum[m]))
		buf = appendU64(buf, uint64(c.completedWords[m]))
		buf = appendU64(buf, uint64(c.waitSum[m]))
		buf = appendU64(buf, uint64(c.maxMsgLat[m]))
		buf = appendU64(buf, uint64(c.grants[m]))
		buf = appendU64(buf, uint64(c.maxStartWait[m]))
		buf = appendU64(buf, uint64(c.retries[m]))
		buf = appendU64(buf, uint64(c.aborts[m]))
		buf = appendU64(buf, uint64(c.timeouts[m]))
		buf = appendU64(buf, uint64(c.errorWords[m]))
		buf = appendU64(buf, uint64(c.drops[m]))
		buf = appendU64(buf, uint64(c.starveEvents[m]))
		buf = appendU64(buf, uint64(c.starveCycles[m]))
		buf = appendU64(buf, uint64(c.maxWait[m]))
		buf = c.hist[m].appendSnapshot(buf)
	}
	buf = appendU64(buf, c.Fingerprint())
	return appendU64(buf, fnvBytes(buf))
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

// appendSnapshot appends the histogram's canonical encoding: fixed
// scalars (floats as bit patterns) followed by the occupied buckets in
// ascending key order, the order the bucket storage walks in.
func (h *Histogram) appendSnapshot(buf []byte) []byte {
	buf = appendU64(buf, uint64(h.count))
	buf = appendU64(buf, math.Float64bits(h.mean))
	buf = appendU64(buf, math.Float64bits(h.m2))
	buf = appendU64(buf, math.Float64bits(h.min))
	buf = appendU64(buf, math.Float64bits(h.max))
	buf = appendU64(buf, uint64(h.overflow))
	buf = appendU64(buf, uint64(h.underflow))
	buf = appendU64(buf, uint64(h.occupied))
	h.each(func(k, c int64) {
		buf = appendU64(buf, uint64(k))
		buf = appendU64(buf, uint64(c))
	})
	return buf
}

// DecodeSnapshot reconstructs a Collector from its snapshot encoding.
// It validates structure strictly (magic, version, exact length, bucket
// keys strictly increasing and in range) and then proves exactness: the
// reconstructed collector's Fingerprint must equal the fingerprint
// stored in the snapshot, or ErrSnapshotCorrupt is returned. A nil
// error therefore guarantees the returned collector is bit-identical to
// the one that was encoded.
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
	n, err := d.u64()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > snapshotMaxMasters {
		return nil, fmt.Errorf("%w: implausible master count %d", ErrSnapshotCorrupt, n)
	}
	c := NewCollector(int(n))
	if c.cycles, err = d.i64(); err != nil {
		return nil, err
	}
	if c.busy, err = d.i64(); err != nil {
		return nil, err
	}
	for m := 0; m < c.n; m++ {
		for _, dst := range []*int64{
			&c.words[m], &c.control[m], &c.messages[m], &c.latencySum[m],
			&c.completedWords[m], &c.waitSum[m], &c.maxMsgLat[m], &c.grants[m],
			&c.maxStartWait[m], &c.retries[m], &c.aborts[m], &c.timeouts[m],
			&c.errorWords[m], &c.drops[m], &c.starveEvents[m], &c.starveCycles[m],
			&c.maxWait[m],
		} {
			if *dst, err = d.i64(); err != nil {
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

func (d *snapDecoder) i64() (int64, error) {
	v, err := d.u64()
	return int64(v), err
}

// histogram decodes one histogram into h (fresh from NewHistogram).
func (d *snapDecoder) histogram(h *Histogram) error {
	var err error
	if h.count, err = d.i64(); err != nil {
		return err
	}
	var bits [4]uint64
	for i := range bits {
		if bits[i], err = d.u64(); err != nil {
			return err
		}
	}
	h.mean = math.Float64frombits(bits[0])
	h.m2 = math.Float64frombits(bits[1])
	h.min = math.Float64frombits(bits[2])
	h.max = math.Float64frombits(bits[3])
	if h.overflow, err = d.i64(); err != nil {
		return err
	}
	if h.underflow, err = d.i64(); err != nil {
		return err
	}
	nb, err := d.u64()
	if err != nil {
		return err
	}
	// Each bucket entry consumes 16 bytes; a claimed count beyond the
	// remaining buffer is corruption, and checking before allocating
	// keeps a hostile header from forcing a giant allocation.
	if nb > uint64(len(d.buf)-d.off)/16 {
		return fmt.Errorf("%w: bucket count %d exceeds remaining data", ErrSnapshotCorrupt, nb)
	}
	pairs, err := d.bytes(int(16 * nb))
	if err != nil {
		return err
	}
	bucketAt := func(i int) (k, v int64) {
		return int64(binary.LittleEndian.Uint64(pairs[16*i:])), int64(binary.LittleEndian.Uint64(pairs[16*i+8:]))
	}
	// First pass: validate, and find the dense length the occupancy
	// allows — keys arrive ascending, so the dense buckets are a prefix.
	nDense, lim := 0, denseLimit(int64(nb))
	prev := int64(-1)
	for i := 0; i < int(nb); i++ {
		k, v := bucketAt(i)
		if k <= prev || k >= maxBucket {
			return fmt.Errorf("%w: bucket key %d out of order or range", ErrSnapshotCorrupt, k)
		}
		if v <= 0 {
			return fmt.Errorf("%w: bucket count %d not positive", ErrSnapshotCorrupt, v)
		}
		if k < lim {
			nDense = i + 1
		}
		prev = k
	}
	h.occupied = int64(nb)
	if nDense > 0 {
		last, _ := bucketAt(nDense - 1)
		h.dense = make([]int64, last+1)
	}
	for i := 0; i < nDense; i++ {
		k, v := bucketAt(i)
		h.dense[k] = v
	}
	for i := nDense; i < int(nb); i += tailBlock {
		blk := make([]bucket, min(tailBlock, int(nb)-i))
		for j := range blk {
			blk[j].key, blk[j].count = bucketAt(i + j)
		}
		h.tail = append(h.tail, blk)
	}
	return nil
}

// appendU64 appends v little-endian.
func appendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}
