package logging

import (
	"runtime"
	"sync"
	"testing"

	"barracuda/internal/trace"
)

// drain1 dequeues exactly one record, which must be there.
func drain1(t *testing.T, q *Queue) Record {
	t.Helper()
	var buf [1]Record
	if n := q.DequeueBatch(buf[:]); n != 1 {
		t.Fatalf("DequeueBatch = %d, want 1", n)
	}
	return buf[0]
}

// pending is the committed-but-unread bytes of a quiescent queue.
func pending(q *Queue) uint64 {
	_, c, r := q.Stats()
	return c - r
}

// counters is one quiescent queue's census.
func counters(q *Queue) Counters { return (&Set{Queues: []*Queue{q}}).Counters() }

// consume drains q on the calling goroutine until the end-of-stream
// sentinel, handing every other record to fn.
func consume(q *Queue, batch int, fn func(r *Record)) {
	buf := make([]Record, batch)
	var bo Backoff
	for {
		n := q.DequeueBatch(buf)
		if n == 0 {
			bo.Wait()
			continue
		}
		bo.Reset()
		for i := 0; i < n; i++ {
			if buf[i].Op == trace.OpEnd {
				return
			}
			fn(&buf[i])
		}
	}
}

func TestQueueCapacityRounding(t *testing.T) {
	cases := []struct{ in, want int }{{1, 2}, {2, 2}, {3, 4}, {16, 16}, {1000, 1024}}
	for _, c := range cases {
		q := NewQueue(c.in)
		if got := q.Cap(); got != c.want {
			t.Errorf("NewQueue(%d).Cap() = %d, want %d", c.in, got, c.want)
		}
		// Same bytes as the slot ring this replaced (552-byte slots plus
		// an 8-byte sequence word each): QueueCap keeps its cost.
		if got, was := 8*len(q.buf), c.want*(552+8); got != was {
			t.Errorf("NewQueue(%d) ring = %d bytes, the slot ring took %d", c.in, got, was)
		}
	}
}

func TestEnqueueDequeueOrder(t *testing.T) {
	q := NewQueue(8)
	for i := 0; i < 5; i++ {
		q.Enqueue(&Record{PC: uint32(i), Op: trace.OpWrite})
	}
	if got := pending(q); got != 5*8*headerWords {
		t.Errorf("pending = %d bytes, want five headers", got)
	}
	for i := 0; i < 5; i++ {
		if r := drain1(t, q); r.PC != uint32(i) {
			t.Errorf("record %d has PC %d", i, r.PC)
		}
	}
	var buf [1]Record
	if q.DequeueBatch(buf[:]) != 0 {
		t.Error("DequeueBatch on empty queue succeeded")
	}
}

func TestQueueWrapAround(t *testing.T) {
	q := NewQueue(2)
	ring := uint64(8 * len(q.buf))
	n := 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 4; i++ {
			r := Record{PC: uint32(n + i), Op: trace.OpRead, Mask: 0xffff}
			r.Addrs[15] = uint64(n + i)
			q.Enqueue(&r)
		}
		for i := 0; i < 4; i++ {
			r := drain1(t, q)
			if r.PC != uint32(n+i) || r.Addrs[15] != uint64(n+i) {
				t.Errorf("round %d: got PC %d addr %d, want %d", round, r.PC, r.Addrs[15], n+i)
			}
		}
		n += 4
	}
	w, c, rh := q.Stats()
	if w != c || c != rh || w <= 4*ring {
		t.Errorf("stats = %d %d %d, want equal virtual indices several laps past %d", w, c, rh, ring)
	}
}

// TestQueueBackpressure fills the ring before the consumer starts, so
// the producer must find it full, wait, and lose nothing.
func TestQueueBackpressure(t *testing.T) {
	q := NewQueue(2)
	ring := uint64(8 * len(q.buf))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			q.Enqueue(&Record{PC: uint32(i)})
		}
		q.Enqueue(&Record{Op: trace.OpEnd})
	}()
	for ring-pending(q) >= 8*headerWords {
		runtime.Gosched()
	}
	next := uint32(0)
	consume(q, 4, func(r *Record) {
		if r.PC != next {
			t.Errorf("PC = %d, want %d", r.PC, next)
		}
		next++
	})
	<-done
	if next != 1000 {
		t.Errorf("consumed %d records, want 1000", next)
	}
	if c := counters(q); c.FullWaits == 0 || c.Blocked <= 0 || c.Records != 1001 {
		t.Errorf("counters = %+v, want a full-ring wait and 1001 records", c)
	}
}

// runOneProducerPerQueue is the transport's concurrency contract under
// test: every queue of the set has one producer goroutine and one
// consumer goroutine, all running at once. Producer qi sends perQueue
// records of the blocks that map to it; the consumer checks per-block
// FIFO order and that every record's payload survived.
func runOneProducerPerQueue(t *testing.T, queues, capacity, perQueue, batch int) *Set {
	t.Helper()
	set := NewSet(queues, capacity)
	var wg sync.WaitGroup
	for qi, q := range set.Queues {
		wg.Add(2)
		go func(qi int, q *Queue) {
			defer wg.Done()
			var r Record
			for i := 0; i < perQueue; i++ {
				stressRecord(&r, qi+queues*(i%3), i/3)
				if set.ForBlock(int(r.Block)) != q {
					t.Errorf("block %d does not map to queue %d", r.Block, qi)
				}
				q.Enqueue(&r)
			}
			q.Enqueue(&Record{Op: trace.OpEnd})
		}(qi, q)
		go func(qi int, q *Queue) {
			defer wg.Done()
			next := map[uint32]int{}
			got := 0
			var want Record
			consume(q, batch, func(r *Record) {
				stressRecord(&want, int(r.Block), next[r.Block])
				if !sameOnWire(r, &want) {
					t.Errorf("queue %d block %d record %d:\n got %+v\nwant %+v", qi, r.Block, next[r.Block], *r, want)
				}
				next[r.Block]++
				got++
			})
			if got != perQueue {
				t.Errorf("queue %d: consumed %d records, want %d", qi, got, perQueue)
			}
		}(qi, q)
	}
	wg.Wait()
	for qi, q := range set.Queues {
		if p := pending(q); p != 0 {
			t.Errorf("queue %d: %d bytes pending after drain", qi, p)
		}
	}
	return set
}

// stressRecord builds the i-th record of a block, cycling through every
// wire form so neighbours in the ring differ in length.
func stressRecord(r *Record, block, i int) {
	*r = Record{Block: uint32(block), Warp: uint32(i % 7), PC: uint32(i), Size: 4, Space: SpaceGlobal}
	switch i % 5 {
	case 0: // control: header only
		r.Op, r.Mask = trace.OpBar, 0xffffffff
	case 1: // strided write, lanes far apart: header only
		r.Op, r.Mask = trace.OpWrite, 0xffffffff
		r.Flags, r.Base, r.Stride = FlagStrided, uint64(i)*4096, 640
	case 2: // stride-0 shared write: header and values
		r.Op, r.Mask, r.Space = trace.OpWrite, 0x0000ff0f, SpaceShared
		r.Flags, r.Base = FlagStrided, uint64(i)
	case 3: // irregular read: header and addresses
		r.Op, r.Mask = trace.OpRead, 0x80000001|uint32(i)<<1
	case 4: // irregular write: the worst case when the mask is full
		r.Op, r.Mask = trace.OpWrite, ^uint32(i%4)
	}
	for m := r.Mask; m != 0; m &= m - 1 {
		lane := trailing(m)
		r.Vals[lane] = uint64(i*64 + lane)
		if r.Flags == 0 {
			r.Addrs[lane] = uint64(block)<<40 | uint64(i)<<8 | uint64(lane*lane)
		}
	}
}

func TestConcurrentProducers(t *testing.T) {
	runOneProducerPerQueue(t, 4, 64, 4000, 1)
}

func TestSetBlockAffinity(t *testing.T) {
	s := NewSet(3, 8)
	if len(s.Queues) != 3 {
		t.Fatalf("queues = %d", len(s.Queues))
	}
	if s.ForBlock(0) != s.Queues[0] || s.ForBlock(4) != s.Queues[1] || s.ForBlock(5) != s.Queues[2] {
		t.Error("block-to-queue mapping wrong")
	}
	// Same block always maps to the same queue.
	if s.ForBlock(7) != s.ForBlock(7) {
		t.Error("mapping not stable")
	}
}

func TestSetCloseAll(t *testing.T) {
	s := NewSet(2, 4)
	s.CloseAll()
	for i, q := range s.Queues {
		if r := drain1(t, q); r.Op != trace.OpEnd {
			t.Errorf("queue %d: missing end sentinel", i)
		}
	}
	if c := s.Counters(); c.Records != 2 || c.Bytes != 2*8*headerWords {
		t.Errorf("set counters = %+v, want the two sentinels", c)
	}
}

func TestNewSetMinimumOneQueue(t *testing.T) {
	if got := len(NewSet(0, 4).Queues); got != 1 {
		t.Errorf("NewSet(0) queues = %d, want 1", got)
	}
}

func TestRecordFieldsPreserved(t *testing.T) {
	q := NewQueue(2)
	in := Record{
		Warp: 7, Block: 3, Op: trace.OpAcqGlb, Space: SpaceShared,
		Size: 4, Mask: 0xdeadbeef, PC: 42, Seq: 99,
	}
	in.Addrs[0] = 0x1000
	in.Addrs[31] = 0x2000
	q.Enqueue(&in)
	if out := drain1(t, q); out != in {
		t.Errorf("record mutated in transit:\n in=%+v\nout=%+v", in, out)
	}
}

func TestSpaceIDString(t *testing.T) {
	if SpaceGlobal.String() != "global" || SpaceShared.String() != "shared" || SpaceLocal.String() != "local" {
		t.Error("SpaceID strings wrong")
	}
}
