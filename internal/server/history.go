package server

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// History is the bounded job table of the daemon and of the fleet
// coordinator. Past the cap the oldest terminal entries are forgotten, never
// a live one: it stays over its cap until its oldest entry finishes.
type History[J any] struct {
	prefix   string
	cap      int
	terminal func(J) bool
	nextID   atomic.Int64

	mu    sync.Mutex
	jobs  map[string]J
	order []string // ids in Put order
}

// NewHistory returns a history of cap entries with ids prefix1, prefix2, ….
// terminal runs with the history locked and must not call back into it.
func NewHistory[J any](prefix string, cap int, terminal func(J) bool) *History[J] {
	return &History[J]{prefix: prefix, cap: cap, terminal: terminal, jobs: make(map[string]J)}
}

// Reserve returns the next id; one that is never Put is skipped.
func (h *History[J]) Reserve() string { return fmt.Sprintf("%s%d", h.prefix, h.nextID.Add(1)) }

// Put enters j under a reserved id and trims to the cap.
func (h *History[J]) Put(id string, j J) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.jobs[id] = j
	h.order = append(h.order, id)
	for len(h.order) > h.cap && h.terminal(h.jobs[h.order[0]]) {
		delete(h.jobs, h.order[0])
		h.order = h.order[1:]
	}
}

// Get looks an entry up by id.
func (h *History[J]) Get(id string) (J, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	j, ok := h.jobs[id]
	return j, ok
}

// List returns the retained entries in submission order.
func (h *History[J]) List() []J {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]J, 0, len(h.order))
	for _, id := range h.order {
		out = append(out, h.jobs[id])
	}
	return out
}

// Drop rolls a Put back. It removes that id wherever it stands: a
// concurrent Put may have followed.
func (h *History[J]) Drop(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.jobs, id)
	if i := slices.Index(h.order, id); i >= 0 {
		h.order = slices.Delete(h.order, i, i+1)
	}
}
