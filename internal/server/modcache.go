package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"barracuda/internal/detector"
)

// ModCache is a content-addressed cache of open detector sessions, keyed
// by the SHA-256 of the PTX source plus the detector configuration (the
// configuration is baked into a Session at Open time, and NoPrune changes
// the instrumented module itself). A hit skips the whole front half of
// the pipeline — parse, CFG construction, instrumentation, module load —
// which dominates the cost of small jobs.
//
// Entries are evicted LRU once the cache holds more than max sessions.
// Each entry carries a mutex serializing jobs on its session (kernel
// launches mutate shared device memory, so a Session must never run two
// Detect calls concurrently) and a buffer arena so that repeated jobs
// with the same buffer sizes reuse — and re-zero — the same device
// allocations. Reuse keeps device memory bounded AND makes repeated
// identical jobs report byte-identical race addresses.
//
// Leases pin their entry: an entry evicted while pinned is dropped from
// the index immediately but its session is only closed when the last
// lease releases, so in-flight jobs always finish on a live session.
type ModCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry
	lru     *list.List // front = most recently used; values are *cacheEntry

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	key  string
	elem *list.Element

	// Guarded by the cache mutex.
	pinned  int  // outstanding leases (plus waiters)
	evicted bool // dropped from the index; close on last unpin

	// mu serializes session construction and job execution on this entry.
	mu   sync.Mutex
	sess *detector.Session
	err  error
	bufs map[string][]uint64 // buffer-size signature → device addresses

	// analysis memoizes the /v1/analyze result for this module: lint
	// diagnostics and pruning statistics depend only on the source.
	analysis *AnalyzeResponse

	// repairs memoizes /v1/repair reports per parameterization (the
	// verification outcome also depends on launch shape and budgets).
	repairs map[string]*detector.RepairReport
}

// NewModCache creates a cache bounded to max sessions (minimum 1).
func NewModCache(max int) *ModCache {
	if max < 1 {
		max = 1
	}
	return &ModCache{
		max:     max,
		entries: make(map[string]*cacheEntry),
		lru:     list.New(),
	}
}

// CacheKey returns the content address of a (source, config) pair. It
// hashes the defaulted struct whole, so a config that spells a default
// out shares an entry with one that leaves it zero, and a field added to
// detector.Config is covered without a change here.
func CacheKey(src string, cfg detector.Config) string {
	h := sha256.New()
	h.Write([]byte(src))
	fmt.Fprintf(h, "\x00%+v", cfg.WithDefaults())
	return hex.EncodeToString(h.Sum(nil))
}

// Lease is exclusive access to a cached session; callers must Release.
type Lease struct {
	c        *ModCache
	e        *cacheEntry
	released bool
}

// Acquire returns a leased session for the given source and config,
// reporting whether it was already cached (a hit). The session is built
// lazily under the entry lock, so two concurrent first submissions of
// the same module build it once. The caller owns the session until
// Release; concurrent jobs on the same module serialize here.
func (c *ModCache) Acquire(src string, cfg detector.Config) (*Lease, bool, error) {
	key := CacheKey(src, cfg)

	c.mu.Lock()
	e, hit := c.entries[key]
	if hit {
		c.lru.MoveToFront(e.elem)
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
		e = &cacheEntry{key: key, bufs: make(map[string][]uint64)}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		c.evictExcessLocked()
	}
	e.pinned++
	c.mu.Unlock()

	e.mu.Lock()
	if e.sess == nil && e.err == nil {
		e.sess, e.err = detector.OpenPTX(src, cfg)
	}
	if e.err != nil {
		err := e.err
		e.mu.Unlock()
		// A module that fails to open is useless warm: drop it so the
		// slot goes to a loadable one.
		c.mu.Lock()
		c.dropLocked(e)
		c.unpinLocked(e)
		c.mu.Unlock()
		return nil, hit, err
	}
	return &Lease{c: c, e: e}, hit, nil
}

// evictExcessLocked drops LRU entries beyond capacity. A pinned entry
// (an in-flight or waiting job) is removed from the index but stays
// open until its last lease releases.
func (c *ModCache) evictExcessLocked() {
	for c.lru.Len() > c.max {
		tail := c.lru.Back()
		if tail == nil {
			return
		}
		e := tail.Value.(*cacheEntry)
		c.dropLocked(e)
		c.evictions.Add(1)
		if e.pinned == 0 && e.sess != nil {
			e.sess.Close()
		}
	}
}

// dropLocked removes an entry from the index (idempotent).
func (c *ModCache) dropLocked(e *cacheEntry) {
	if !e.evicted {
		e.evicted = true
		c.lru.Remove(e.elem)
		delete(c.entries, e.key)
	}
}

// unpinLocked releases one pin, closing an already-evicted session once
// the last holder lets go.
func (c *ModCache) unpinLocked(e *cacheEntry) {
	e.pinned--
	if e.evicted && e.pinned == 0 && e.sess != nil {
		e.sess.Close()
	}
}

// Session returns the leased detector session.
func (l *Lease) Session() *detector.Session { return l.e.sess }

// Buffers returns zeroed device buffers of the given sizes, reusing the
// entry's previous allocations when the size signature matches (so a
// repeated job sees identical addresses and a freshly zeroed initial
// state) and allocating otherwise.
func (l *Lease) Buffers(sizes []int) ([]uint64, error) {
	sig := fmt.Sprint(sizes)
	if addrs, ok := l.e.bufs[sig]; ok {
		for i, a := range addrs {
			if err := l.e.sess.Dev.Memset(a, 0, sizes[i]); err != nil {
				return nil, err
			}
		}
		return addrs, nil
	}
	addrs, err := l.e.sess.AllocArgs(sizes)
	if err != nil {
		return nil, err
	}
	l.e.bufs[sig] = addrs
	return addrs, nil
}

// Release returns the session to the cache. Idempotent.
func (l *Lease) Release() {
	if l.released {
		return
	}
	l.released = true
	l.e.mu.Unlock()
	l.c.mu.Lock()
	l.c.unpinLocked(l.e)
	l.c.mu.Unlock()
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRatio  float64 `json:"hit_ratio"`
}

// Stats snapshots the counters.
func (c *ModCache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	h, m := c.hits.Load(), c.misses.Load()
	s := CacheStats{Entries: n, Capacity: c.max, Hits: h, Misses: m, Evictions: c.evictions.Load()}
	if h+m > 0 {
		s.HitRatio = float64(h) / float64(h+m)
	}
	return s
}
