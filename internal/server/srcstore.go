package server

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// SrcStore is a bounded content-addressed store of module sources,
// keyed by SHA-256 of the bytes. It backs the streaming protocol's
// warm-upload short-circuit: a client that declares a hash the store
// already holds skips the byte transfer, and a fleet coordinator
// re-streams a retried job to a ring-affine worker without keeping the
// module in its own memory twice.
//
// It keys on the same HashSrc as ModCache but is bounded apart from it:
// ModCache holds built sessions (expensive, few), SrcStore raw text
// (cheap, many), so an upload outlives its session's eviction.
type SrcStore struct {
	mu      sync.Mutex
	entries map[[32]byte]*list.Element // value: *srcEntry
	lru     *list.List                 // front = most recent
	max     int
	hits    int64
	misses  int64
}

type srcEntry struct {
	hash [32]byte
	src  string
}

// NewSrcStore builds a store bounded to max entries (≤0 means 64).
func NewSrcStore(max int) *SrcStore {
	if max <= 0 {
		max = 64
	}
	return &SrcStore{entries: make(map[[32]byte]*list.Element), lru: list.New(), max: max}
}

// HashSrc is the content key of a module source: SrcStore's and
// ModCache's, and in hex (CacheKey) the fleet ring's.
func HashSrc(src string) [32]byte { return sha256.Sum256([]byte(src)) }

// Put stores src under h, its HashSrc, which the caller has computed.
func (s *SrcStore) Put(h [32]byte, src string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[h]; ok {
		s.lru.MoveToFront(el)
		return
	}
	s.entries[h] = s.lru.PushFront(&srcEntry{hash: h, src: src})
	for s.lru.Len() > s.max {
		el := s.lru.Back()
		s.lru.Remove(el)
		delete(s.entries, el.Value.(*srcEntry).hash)
	}
}

// Get returns the source stored under hash, if resident.
func (s *SrcStore) Get(hash [32]byte) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[hash]; ok {
		s.lru.MoveToFront(el)
		s.hits++
		return el.Value.(*srcEntry).src, true
	}
	s.misses++
	return "", false
}

// SrcStoreStats is the hit/miss/occupancy snapshot.
type SrcStoreStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

// Stats snapshots the store.
func (s *SrcStore) Stats() SrcStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SrcStoreStats{Entries: s.lru.Len(), Hits: s.hits, Misses: s.misses}
}
