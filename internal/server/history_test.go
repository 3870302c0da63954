package server

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHistory: past the cap the oldest terminal entries go, a live oldest
// entry stops the trim however far over the cap the history is, and Drop
// of a middle id leaves its neighbours listed in order.
func TestHistory(t *testing.T) {
	type entry struct {
		id   string
		done bool
	}
	h := NewHistory("e-", 2, func(e *entry) bool { return e.done })
	put := func(done bool) *entry {
		e := &entry{id: h.Reserve(), done: done}
		h.Put(e.id, e)
		return e
	}
	listed := func() []string {
		ids := []string{}
		for _, e := range h.List() {
			ids = append(ids, e.id)
		}
		return ids
	}

	put(true)
	put(true)
	put(true)
	if got := listed(); !reflect.DeepEqual(got, []string{"e-2", "e-3"}) {
		t.Fatalf("three terminal entries under a cap of 2: %v, want the oldest gone", got)
	}
	if _, ok := h.Get("e-1"); ok {
		t.Fatal("a forgotten entry is still found")
	}

	live := put(false) // forgets e-2, becomes the oldest but one
	put(true)          // forgets e-3: live is the oldest
	put(true)
	put(true)
	if got := listed(); !reflect.DeepEqual(got, []string{"e-4", "e-5", "e-6", "e-7"}) {
		t.Fatalf("a live oldest entry: %v, want it and everything after it kept", got)
	}
	if e, ok := h.Get("e-4"); !ok || e != live {
		t.Fatal("the live entry is not found")
	}

	// Reserved and never Put: a refused submission's id is skipped.
	if id := h.Reserve(); id != "e-8" {
		t.Fatalf("Reserve = %q, want e-8", id)
	}
	h.Drop("e-6")
	if got := listed(); !reflect.DeepEqual(got, []string{"e-4", "e-5", "e-7"}) {
		t.Fatalf("after Drop of a middle id: %v", got)
	}
	h.Drop("e-6") // dropping what is not there is a no-op

	live.done = true
	put(true)
	if got := listed(); !reflect.DeepEqual(got, []string{"e-7", "e-9"}) {
		t.Fatalf("once the pinning entry finished: %v, want the history back at its cap", got)
	}
}

// TestHistoryConcurrent: submitters, pollers and a lister on one small
// history (meaningful under -race). Ids stay unique, every entry is found
// while it is live, and once all are terminal the history is at its cap.
func TestHistoryConcurrent(t *testing.T) {
	type entry struct{ done atomic.Bool }
	h := NewHistory("e-", 8, func(e *entry) bool { return e.done.Load() })
	var wg sync.WaitGroup
	var ids sync.Map
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e, id := &entry{}, h.Reserve()
				if _, dup := ids.LoadOrStore(id, true); dup {
					t.Errorf("id %s reserved twice", id)
				}
				if i%10 == 0 {
					continue // a refused submission: reserved, never put
				}
				h.Put(id, e)
				if got, ok := h.Get(id); !ok || got != e {
					t.Errorf("live entry %s not found", id)
				}
				if i%7 == 0 {
					h.Drop(id)
				}
				h.List()
				e.done.Store(true)
			}
		}()
	}
	wg.Wait()
	h.Put(h.Reserve(), &entry{}) // one more Put trims what finished after its own
	if n := len(h.List()); n != 8 {
		t.Errorf("%d entries retained once all are terminal, want the cap of 8", n)
	}
}
