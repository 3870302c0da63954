package logging

import (
	"testing"

	"barracuda/internal/trace"
)

// TestStressMultiQueueWraparound is the go test -race stress for the
// concurrent core of the transport: one producer and one consumer per
// queue of a multi-queue Set — the paper's arrangement, a DMA engine and
// a detector thread per queue — through the smallest rings there are,
// forcing the virtual indices far past wraparound and exercising the
// full-ring wait, with records of every length so they straddle the end
// of the ring at arbitrary offsets.
func TestStressMultiQueueWraparound(t *testing.T) {
	const perQueue = 8000
	set := runOneProducerPerQueue(t, 3, 1, perQueue, 16)
	for qi, q := range set.Queues {
		w, _, _ := q.Stats()
		if ring := uint64(8 * len(q.buf)); w <= 100*ring {
			t.Errorf("queue %d: write head %d wrapped fewer than 100 times (ring %d)", qi, w, ring)
		}
		if c := counters(q); c.Records != perQueue+1 || c.FullWaits == 0 {
			t.Errorf("queue %d: counters %+v, want %d records and full-ring waits", qi, c, perQueue+1)
		}
	}
}

// TestStressInterleavedProducersOneBlock is one block's queue under one
// producer that interleaves the records of sixteen warps, as the
// simulator's scheduler does: per-warp order must survive the ring,
// whatever the batch boundaries.
func TestStressInterleavedProducersOneBlock(t *testing.T) {
	const (
		warps = 16
		each  = 5000
	)
	q := NewQueue(4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var r Record
		r.Op, r.Size = trace.OpWrite, 4
		for i := 0; i < each; i++ {
			for wp := 0; wp < warps; wp++ {
				r.Warp, r.Mask = uint32(wp), 1<<uint(wp)|1
				r.Addrs[0], r.Addrs[wp] = uint64(i), uint64(i)
				q.Enqueue(&r)
			}
		}
		q.Enqueue(&Record{Op: trace.OpEnd})
	}()
	next := make([]uint64, warps)
	consume(q, 7, func(r *Record) {
		if got := r.Addrs[r.Warp]; got != next[r.Warp] || r.Addrs[0] != got {
			t.Fatalf("warp %d out of order: got %d, want %d", r.Warp, got, next[r.Warp])
		}
		next[r.Warp]++
	})
	<-done
	for wp, n := range next {
		if n != each {
			t.Errorf("warp %d: %d records, want %d", wp, n, each)
		}
	}
	if p := pending(q); p != 0 {
		t.Errorf("pending = %d bytes after drain", p)
	}
}
