package cache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lotterybus/internal/stats"
)

// testCollector builds a small deterministic collector whose state
// varies with tag.
func testCollector(tag int) *stats.Collector {
	c := stats.NewCollector(3)
	c.AdvanceCycles(int64(1000 + tag))
	for m := 0; m < 3; m++ {
		words := 4 + m + tag%5
		c.Granted(m)
		c.MessageStarted(m, 0, int64(m+tag))
		c.WordsTransferred(m, int64(words))
		c.MessageCompleted(m, words, 0, int64(words+m+tag))
	}
	return c
}

func testKey(tag int) Key {
	return KeyOf([]byte{byte(tag), byte(tag >> 8)}, 42, "test")
}

func TestKeyOfDistinguishesFields(t *testing.T) {
	base := KeyOf([]byte("abc"), 1, "x")
	for name, k := range map[string]Key{
		"config":  KeyOf([]byte("abd"), 1, "x"),
		"seed":    KeyOf([]byte("abc"), 2, "x"),
		"variant": KeyOf([]byte("abc"), 1, "y"),
		// Concatenation ambiguity: moving a byte across the
		// config/variant boundary must change the key.
		"boundary": KeyOf([]byte("abcx"), 1, ""),
	} {
		if k == base {
			t.Fatalf("key ignores %s", name)
		}
	}
	if KeyOf([]byte("abc"), 1, "x") != base {
		t.Fatal("KeyOf is not deterministic")
	}
}

func TestNilCacheIsNoOp(t *testing.T) {
	var c *Cache
	col, src, err := c.GetOrCompute(testKey(0), func() (*stats.Collector, error) {
		return testCollector(0), nil
	})
	if err != nil || col == nil || src != SourceComputed {
		t.Fatalf("nil cache must compute: src=%v err=%v", src, err)
	}
	col, src, err = c.Share(testKey(0), func() (*stats.Collector, error) {
		return testCollector(0), nil
	})
	if err != nil || col == nil || src != SourceComputed {
		t.Fatalf("nil cache Share must compute: src=%v err=%v", src, err)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats: %+v", s)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache Len")
	}
	c.Put(testKey(0), testCollector(0)) // must not panic
	if col, src, ok := c.Get(testKey(0)); ok || col != nil || src != SourceComputed {
		t.Fatalf("nil cache Get = (%v, %v, %v), want a miss", col, src, ok)
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	c := New("")
	key := testKey(1)
	want := testCollector(1)
	if _, _, ok := c.Get(key); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(key, want)
	got, src, ok := c.Get(key)
	if !ok || src != SourceMemory {
		t.Fatalf("hit=%v src=%v", ok, src)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("memory hit fingerprint differs")
	}
	if got == want {
		t.Fatal("hit must not alias the stored collector")
	}
	s := c.Stats()
	if s.MemoryHits != 1 || s.Misses != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestPutSnapshotsImmediately proves a Put is a snapshot: mutating the
// collector afterwards does not change the cached result.
func TestPutSnapshotsImmediately(t *testing.T) {
	c := New("")
	key := testKey(2)
	col := testCollector(2)
	fp := col.Fingerprint()
	c.Put(key, col)
	col.AdvanceCycles(999) // caller keeps simulating; cache must not see it
	got, _, ok := c.Get(key)
	if !ok || got.Fingerprint() != fp {
		t.Fatal("cached entry changed after Put")
	}
}

func TestDiskRoundTripAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	key := testKey(3)
	want := testCollector(3)

	cold := New(dir)
	cold.Put(key, want)
	if w := cold.Stats().BytesWritten; w <= 0 {
		t.Fatalf("BytesWritten = %d", w)
	}

	// A fresh instance over the same directory — a second process —
	// must replay from disk.
	warm := New(dir)
	got, src, ok := warm.Get(key)
	if !ok || src != SourceDisk {
		t.Fatalf("hit=%v src=%v", ok, src)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("disk hit fingerprint differs")
	}
	// The disk hit is promoted into memory.
	if _, src, _ := warm.Get(key); src != SourceMemory {
		t.Fatalf("second lookup src=%v, want memory", src)
	}
	s := warm.Stats()
	if s.DiskHits != 1 || s.MemoryHits != 1 || s.BytesRead <= 0 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestCorruptDiskEntriesMiss proves every corruption mode is a miss
// that evicts the file and resimulates — never a crash or a silent
// wrong result.
func TestCorruptDiskEntriesMiss(t *testing.T) {
	key := testKey(4)
	want := testCollector(4)
	mutate := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"version":   func(b []byte) []byte { b[4] = stats.SnapshotVersion + 1; return b },
		"bitflip":   func(b []byte) []byte { b[len(b)/3] ^= 0x01; return b },
		"empty":     func(b []byte) []byte { return nil },
	}
	for name, fn := range mutate {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seed := New(dir)
			seed.Put(key, want)
			path := filepath.Join(dir, key.String()+snapshotExt)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, fn(b), 0o644); err != nil {
				t.Fatal(err)
			}

			c := New(dir)
			if _, _, ok := c.Get(key); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry not evicted")
			}
			s := c.Stats()
			if s.Evictions != 1 || s.Misses != 1 {
				t.Fatalf("stats: %+v", s)
			}
			// Resimulation repairs the slot.
			computed := 0
			got, src, err := c.GetOrCompute(key, func() (*stats.Collector, error) {
				computed++
				return testCollector(4), nil
			})
			if err != nil || src != SourceComputed || computed != 1 {
				t.Fatalf("recompute: src=%v computed=%d err=%v", src, computed, err)
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatal("recomputed fingerprint differs")
			}
			if _, src, _ := New(dir).Get(key); src != SourceDisk {
				t.Fatal("repaired entry not persisted")
			}
		})
	}
}

// TestVersion1EntryResimulates replays a cache directory written before
// snapshot format version 2: testdata/snapshot-v1.bin is testCollector(4)
// as the version-1 codec encoded it. The entry is evicted and counted
// as a miss, the point is recomputed, and the slot is rewritten in the
// current format.
func TestVersion1EntryResimulates(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "snapshot-v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stats.DecodeSnapshot(v1); !errors.Is(err, stats.ErrSnapshotVersion) {
		t.Fatalf("version-1 snapshot decoded with %v, want ErrSnapshotVersion", err)
	}
	dir := t.TempDir()
	key := testKey(4)
	path := filepath.Join(dir, key.String()+snapshotExt)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(dir)
	computed := 0
	got, src, err := c.GetOrCompute(key, func() (*stats.Collector, error) {
		computed++
		return testCollector(4), nil
	})
	if err != nil || src != SourceComputed || computed != 1 {
		t.Fatalf("src=%v computed=%d err=%v, want one recomputation", src, computed, err)
	}
	if s := c.Stats(); s.Evictions != 1 || s.Misses != 1 || s.Hits() != 0 {
		t.Fatalf("stats: %+v, want 1 eviction and 1 miss", s)
	}
	if got.Fingerprint() != testCollector(4).Fingerprint() {
		t.Fatal("recomputed fingerprint differs")
	}
	rewritten, err := os.ReadFile(path)
	if err != nil || rewritten[4] != stats.SnapshotVersion {
		t.Fatalf("slot not rewritten in version %d (err %v)", stats.SnapshotVersion, err)
	}
	if len(rewritten) >= len(v1) {
		t.Fatalf("rewritten entry %d bytes, version-1 entry %d", len(rewritten), len(v1))
	}
	if _, src, _ := New(dir).Get(key); src != SourceDisk {
		t.Fatalf("rewritten entry src=%v, want disk", src)
	}
}

// TestSingleflight proves one simulation per distinct key: many
// concurrent GetOrCompute callers on the same key share a single
// compute, and every caller observes the same result.
func TestSingleflight(t *testing.T) {
	c := New("")
	const keys, callers = 4, 16
	var computes atomic.Int64
	gate := make(chan struct{})

	var wg sync.WaitGroup
	fps := make([]uint64, keys*callers)
	for k := 0; k < keys; k++ {
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(k, i int) {
				defer wg.Done()
				<-gate
				col, _, err := c.GetOrCompute(testKey(k), func() (*stats.Collector, error) {
					computes.Add(1)
					return testCollector(k), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				fps[k*callers+i] = col.Fingerprint()
			}(k, i)
		}
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != keys {
		t.Fatalf("computed %d times, want exactly %d (one per distinct key)", got, keys)
	}
	for k := 0; k < keys; k++ {
		want := testCollector(k).Fingerprint()
		for i := 0; i < callers; i++ {
			if fps[k*callers+i] != want {
				t.Fatalf("caller %d of key %d saw wrong fingerprint", i, k)
			}
		}
	}
	s := c.Stats()
	if s.Misses != keys || s.Hits()+s.Misses != keys*callers {
		t.Fatalf("stats: %+v", s)
	}
}

// TestShareAfterMiss proves Share deduplicates like GetOrCompute for
// callers whose Get already missed — one compute per key, every caller
// sees the result — while the Gets stay the only counter events.
func TestShareAfterMiss(t *testing.T) {
	c := New("")
	const keys, callers = 4, 16
	var computes atomic.Int64
	gate := make(chan struct{})

	var wg sync.WaitGroup
	fps := make([]uint64, keys*callers)
	for k := 0; k < keys; k++ {
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(k, i int) {
				defer wg.Done()
				if _, _, ok := c.Get(testKey(k)); ok {
					t.Error("hit before any compute")
				}
				<-gate
				col, _, err := c.Share(testKey(k), func() (*stats.Collector, error) {
					computes.Add(1)
					return testCollector(k), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				fps[k*callers+i] = col.Fingerprint()
			}(k, i)
		}
	}
	for c.Stats().Misses != keys*callers {
		runtime.Gosched() // every Get misses before any Share computes
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != keys {
		t.Fatalf("computed %d times, want exactly %d (one per distinct key)", got, keys)
	}
	for k := 0; k < keys; k++ {
		want := testCollector(k).Fingerprint()
		for i := 0; i < callers; i++ {
			if fps[k*callers+i] != want {
				t.Fatalf("caller %d of key %d saw wrong fingerprint", i, k)
			}
		}
	}
	if s := c.Stats(); s.Misses != keys*callers || s.Hits() != 0 {
		t.Fatalf("stats: %+v, want only the %d Get misses", s, keys*callers)
	}
}

// TestComputeErrorsNotCached proves a failed computation is shared with
// its waiters but never cached: the next call retries.
func TestComputeErrorsNotCached(t *testing.T) {
	c := New("")
	key := testKey(5)
	boom := os.ErrPermission
	if _, _, err := c.GetOrCompute(key, func() (*stats.Collector, error) {
		return nil, boom
	}); err != boom {
		t.Fatalf("err = %v", err)
	}
	col, src, err := c.GetOrCompute(key, func() (*stats.Collector, error) {
		return testCollector(5), nil
	})
	if err != nil || src != SourceComputed || col == nil {
		t.Fatalf("retry after error: src=%v err=%v", src, err)
	}
}

// TestWaiterOutlivesCanceledLeader proves a leader's cancellation stays
// the leader's: a caller waiting on that flight is not handed the
// leader's context error but computes the entry itself.
func TestWaiterOutlivesCanceledLeader(t *testing.T) {
	for _, leaderErr := range []error{context.Canceled, fmt.Errorf("run: %w", context.DeadlineExceeded)} {
		c := New("")
		key := testKey(6)
		entered, release := make(chan struct{}), make(chan struct{})
		leaderDone := make(chan error)
		go func() {
			_, _, err := c.Share(key, func() (*stats.Collector, error) {
				close(entered)
				<-release
				return nil, leaderErr
			})
			leaderDone <- err
		}()
		<-entered
		waiterDone := make(chan error)
		var computes atomic.Int64
		go func() {
			col, src, err := c.Share(key, func() (*stats.Collector, error) {
				computes.Add(1)
				return testCollector(6), nil
			})
			if err == nil && (src != SourceComputed || col.Fingerprint() != testCollector(6).Fingerprint()) {
				err = fmt.Errorf("waiter got src=%v and a foreign collector", src)
			}
			waiterDone <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the waiter block on the flight
		close(release)
		if err := <-leaderDone; !errors.Is(err, leaderErr) {
			t.Fatalf("leader err = %v, want %v", err, leaderErr)
		}
		if err := <-waiterDone; err != nil {
			t.Fatalf("leader failed with %v; waiter err = %v, want its own computed entry", leaderErr, err)
		}
		if computes.Load() != 1 {
			t.Fatalf("waiter computed %d times, want 1", computes.Load())
		}
	}
}
