// Package cache is a content-addressed simulation result cache: the
// foundation of the ROADMAP's warm shared backend, where design-space
// explorers re-evaluate thousands of near-duplicate configurations and
// every exact repeat should cost a map lookup instead of a simulation.
//
// A key is the SHA-256 digest of the canonical serialized effective
// configuration (bus + arbiter + traffic + fault + run length), the
// seed, and a variant tag; a value is the versioned binary snapshot of
// the finished stats.Collector (internal/stats, EncodeSnapshot). Two
// layers share one store:
//
//   - an in-memory map with singleflight semantics, so a parallel sweep
//     that revisits identical (config, seed) points simulates each
//     distinct point exactly once and concurrent workers join the
//     in-flight computation instead of duplicating it;
//   - an optional persistent directory (one file per key, written to a
//     temp file and atomically renamed), so a second invocation of the
//     same study is pure cache replay.
//
// Exactness is enforced, not assumed. The cache stores encoded
// snapshots — never live collectors — and every hit decodes a fresh
// one, which re-verifies the snapshot's embedded fingerprint and
// whole-file checksum; a truncated, version-mismatched or corrupted
// entry (memory or disk) is evicted and treated as a miss, never
// returned. check.CacheEquivalence proves cold and warm runs
// fingerprint-identical over the full verification grid.
package cache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"

	"lotterybus/internal/stats"
)

// Key is a content address: the SHA-256 digest of (canonical config
// bytes, seed, variant).
type Key [sha256.Size]byte

// String returns the key's hex form — also its filename in a
// disk-backed cache.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf derives the cache key for one simulation: canonical is the
// deterministic serialization of the effective configuration (e.g.
// SimConfig.Canonical() or an experiment's point descriptor), seed is
// the PRNG seed the run derives every stream from, and variant
// distinguishes runs that share a configuration but must not share a
// cache entry (the check matrix's "naive" vs "fast" engine A/B runs,
// which exist precisely to be computed independently and compared).
// Fields are length-prefixed before hashing so no two distinct inputs
// collide by concatenation.
func KeyOf(canonical []byte, seed uint64, variant string) Key {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(canonical)))
	h.Write(b[:])
	h.Write(canonical)
	binary.LittleEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(len(variant)))
	h.Write(b[:])
	h.Write([]byte(variant))
	var k Key
	h.Sum(k[:0])
	return k
}

// Source says where a result came from.
type Source int

const (
	// SourceComputed means the result was freshly simulated (a miss).
	SourceComputed Source = iota
	// SourceMemory means the result was decoded from the in-memory layer.
	SourceMemory
	// SourceDisk means the result was read from the persistent directory.
	SourceDisk
)

// String names the source for journal events and logs.
func (s Source) String() string {
	switch s {
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	default:
		return "computed"
	}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	MemoryHits int64 // hits served from the in-memory layer
	DiskHits   int64 // hits read from the persistent directory
	Misses     int64 // lookups that fell through to simulation
	Evictions  int64 // corrupt/mismatched entries removed (memory or disk)
	// BytesRead / BytesWritten count persistent-layer traffic only; the
	// memory layer moves no I/O.
	BytesRead    int64
	BytesWritten int64
}

// Hits returns total hits across both layers.
func (s Stats) Hits() int64 { return s.MemoryHits + s.DiskHits }

// Cache is a two-layer content-addressed result store. A nil *Cache is
// valid and caches nothing: every lookup misses and GetOrCompute calls
// its function directly — which is exactly the -no-cache A/B path, so
// callers never branch on cache presence.
//
// All methods are safe for concurrent use by the parallel sweep runner.
type Cache struct {
	mu       sync.Mutex
	mem      map[Key][]byte // encoded snapshots, never live collectors
	inflight map[Key]*call  // singleflight: one computation per key
	disk     *diskStore     // nil when no directory is configured

	memoryHits   atomic.Int64
	diskHits     atomic.Int64
	misses       atomic.Int64
	evictions    atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

// call is one in-flight computation; waiters block on done and then
// re-read the store (on success the leader has published the entry).
type call struct {
	done chan struct{}
	err  error
}

// New returns a cache. With dir == "" the cache is memory-only; with a
// directory it also persists one file per key there, creating the
// directory if needed (a failure to create it surfaces on first Put).
func New(dir string) *Cache {
	c := &Cache{
		mem:      make(map[Key][]byte),
		inflight: make(map[Key]*call),
	}
	if dir != "" {
		c.disk = newDiskStore(dir)
	}
	return c
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		MemoryHits:   c.memoryHits.Load(),
		DiskHits:     c.diskHits.Load(),
		Misses:       c.misses.Load(),
		Evictions:    c.evictions.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
	}
}

// Writable probes the persistent layer with a real write+remove and
// returns the failure, if any — the job server's cache readiness check.
// A nil or memory-only cache is always writable.
func (c *Cache) Writable() error {
	if c == nil || c.disk == nil {
		return nil
	}
	return c.disk.writable()
}

// Len returns the number of entries in the memory layer.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Get looks the key up in memory, then on disk, and returns a freshly
// decoded collector on a hit. Decoding re-verifies the snapshot's
// checksum and fingerprint; an entry that fails is evicted (memory and
// disk) and reported as a miss. The returned collector is private to
// the caller — hits never alias each other or the stored bytes.
func (c *Cache) Get(key Key) (*stats.Collector, Source, bool) {
	if c == nil {
		return nil, SourceComputed, false
	}
	col, src := c.lookup(key)
	c.count(src, col != nil)
	return col, src, col != nil
}

// lookup is Get without counter updates (GetOrCompute does its own
// accounting so one logical lookup never counts twice).
func (c *Cache) lookup(key Key) (*stats.Collector, Source) {
	c.mu.Lock()
	enc, ok := c.mem[key]
	c.mu.Unlock()
	if ok {
		col, err := stats.DecodeSnapshot(enc)
		if err == nil {
			return col, SourceMemory
		}
		// A corrupt memory entry should be impossible (Put validates);
		// evict it and fall through to disk rather than fail the run.
		c.mu.Lock()
		delete(c.mem, key)
		c.mu.Unlock()
		c.evictions.Add(1)
	}
	if c.disk == nil {
		return nil, SourceComputed
	}
	enc, err := c.disk.read(key)
	if err != nil || enc == nil {
		return nil, SourceComputed
	}
	c.bytesRead.Add(int64(len(enc)))
	col, err := stats.DecodeSnapshot(enc)
	if err != nil {
		// Truncated, version-mismatched or bit-flipped file: remove it
		// so the slot is rewritten by the recomputation, and miss.
		c.disk.remove(key)
		c.evictions.Add(1)
		return nil, SourceComputed
	}
	c.mu.Lock()
	c.mem[key] = enc
	c.mu.Unlock()
	return col, SourceDisk
}

// count records the outcome of one logical lookup.
func (c *Cache) count(src Source, hit bool) {
	switch {
	case !hit:
		c.misses.Add(1)
	case src == SourceMemory:
		c.memoryHits.Add(1)
	case src == SourceDisk:
		c.diskHits.Add(1)
	}
}

// Put stores the collector's snapshot under key, in memory and (when
// configured) on disk. The collector is encoded immediately, so later
// mutation of col cannot retroactively change the cached result.
func (c *Cache) Put(key Key, col *stats.Collector) {
	if c == nil {
		return
	}
	enc := col.EncodeSnapshot()
	c.mu.Lock()
	c.mem[key] = enc
	c.mu.Unlock()
	if c.disk != nil {
		if err := c.disk.write(key, enc); err == nil {
			c.bytesWritten.Add(int64(len(enc)))
		}
	}
}

// GetOrCompute returns the cached collector for key, or runs compute
// exactly once to produce it. Concurrent callers with the same key
// share one computation (singleflight): the leader simulates and
// publishes, waiters block and then read the published entry. Errors
// are returned to the leader and every waiter of that flight but are
// not cached — a later call retries. A leader's cancellation or
// deadline error belongs to the leader alone: its waiters retry, and one
// of them leads the next computation. Exactly one counter event (hit or
// miss) is recorded per call.
func (c *Cache) GetOrCompute(key Key, compute func() (*stats.Collector, error)) (*stats.Collector, Source, error) {
	return c.flight(key, compute, true)
}

// Share is GetOrCompute for a caller whose Get of key just missed: it
// shares one computation with concurrent Share and GetOrCompute callers
// of key, and returns the entry another caller published in the
// meantime rather than recompute it. It records no lookup, so the Get
// that missed stays the one counter event.
func (c *Cache) Share(key Key, compute func() (*stats.Collector, error)) (*stats.Collector, Source, error) {
	return c.flight(key, compute, false)
}

// flight is GetOrCompute; count selects whether it records its lookup.
func (c *Cache) flight(key Key, compute func() (*stats.Collector, error), count bool) (*stats.Collector, Source, error) {
	if c == nil {
		col, err := compute()
		return col, SourceComputed, err
	}
	for {
		if col, src := c.lookup(key); col != nil {
			if count {
				c.count(src, true)
			}
			return col, src, nil
		}
		c.mu.Lock()
		if cl, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			<-cl.done
			if cl.err != nil && !canceled(cl.err) {
				return nil, SourceComputed, cl.err
			}
			continue // leader published, or was cancelled: look again or lead
		}
		cl := &call{done: make(chan struct{})}
		c.inflight[key] = cl
		c.mu.Unlock()

		col, err := compute()
		if err == nil {
			c.Put(key, col)
		}
		cl.err = err
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(cl.done)
		if err != nil {
			return nil, SourceComputed, err
		}
		if count {
			c.misses.Add(1)
		}
		return col, SourceComputed, nil
	}
}

// canceled reports whether err ends a computation because its caller's
// context did, not because of the key.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
