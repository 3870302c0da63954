package logging

import (
	"testing"

	"barracuda/internal/trace"
)

func TestDequeueBatchEmpty(t *testing.T) {
	q := NewQueue(8)
	buf := make([]Record, 4)
	if n := q.DequeueBatch(buf); n != 0 {
		t.Errorf("DequeueBatch on empty queue = %d, want 0", n)
	}
	if n := q.DequeueBatch(nil); n != 0 {
		t.Errorf("DequeueBatch(nil) = %d, want 0", n)
	}
}

func TestDequeueBatchPartial(t *testing.T) {
	q := NewQueue(16)
	for i := 0; i < 5; i++ {
		q.Enqueue(&Record{PC: uint32(i)})
	}
	buf := make([]Record, 8)
	n := q.DequeueBatch(buf)
	if n != 5 {
		t.Fatalf("DequeueBatch = %d, want 5 (partial batch)", n)
	}
	for i := 0; i < n; i++ {
		if buf[i].PC != uint32(i) {
			t.Errorf("record %d has PC %d", i, buf[i].PC)
		}
	}
	if n := q.DequeueBatch(buf); n != 0 {
		t.Errorf("second DequeueBatch = %d, want 0", n)
	}
}

func TestDequeueBatchSmallerThanPending(t *testing.T) {
	q := NewQueue(16)
	for i := 0; i < 10; i++ {
		q.Enqueue(&Record{PC: uint32(i)})
	}
	buf := make([]Record, 4)
	var got []uint32
	for {
		n := q.DequeueBatch(buf)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			got = append(got, buf[i].PC)
		}
	}
	if len(got) != 10 {
		t.Fatalf("drained %d records, want 10", len(got))
	}
	for i, pc := range got {
		if pc != uint32(i) {
			t.Errorf("record %d has PC %d (order broken across batches)", i, pc)
		}
	}
}

func TestDequeueBatchWrapAround(t *testing.T) {
	q := NewQueue(2) // two worst-case records: batches must cross the ring's end
	buf := make([]Record, 4)
	next := uint32(0)
	for round := 0; round < 100; round++ {
		// Three irregular reads of 7, 8 and 9 lanes: 42 words a round
		// against a 140-word ring, so the read position visits every phase.
		fill := 3
		for i := 0; i < fill; i++ {
			r := Record{PC: next + uint32(i), Op: trace.OpRead, Mask: 1<<uint(7+i) - 1}
			r.Addrs[6] = uint64(r.PC)
			q.Enqueue(&r)
		}
		n := q.DequeueBatch(buf)
		if n != fill {
			t.Fatalf("round %d: DequeueBatch = %d, want %d", round, n, fill)
		}
		for i := 0; i < n; i++ {
			if want := next + uint32(i); buf[i].PC != want || buf[i].Addrs[6] != uint64(want) {
				t.Fatalf("round %d: record %d has PC %d addr %d, want %d (wraparound corrupted order)",
					round, i, buf[i].PC, buf[i].Addrs[6], want)
			}
		}
		next += uint32(fill)
	}
	if p := pending(q); p != 0 {
		t.Errorf("pending = %d bytes after drain", p)
	}
}

func TestDequeueBatchLargerThanCap(t *testing.T) {
	q := NewQueue(4)
	for i := 0; i < 4; i++ {
		q.Enqueue(&Record{PC: uint32(i)})
	}
	// A batch buffer larger than the whole ring must cap at what is
	// committed, not read stale or unpublished slots.
	buf := make([]Record, 3*q.Cap())
	n := q.DequeueBatch(buf)
	if n != 4 {
		t.Fatalf("DequeueBatch = %d, want 4 (full ring)", n)
	}
	for i := 0; i < n; i++ {
		if buf[i].PC != uint32(i) {
			t.Errorf("record %d has PC %d", i, buf[i].PC)
		}
	}
}

func TestDequeueBatchInterleavedOpEnd(t *testing.T) {
	q := NewQueue(16)
	q.Enqueue(&Record{PC: 1, Op: trace.OpWrite})
	q.Enqueue(&Record{PC: 2, Op: trace.OpWrite})
	q.Enqueue(&Record{Op: trace.OpEnd})
	buf := make([]Record, 8)
	n := q.DequeueBatch(buf)
	if n != 3 {
		t.Fatalf("DequeueBatch = %d, want 3 (OpEnd travels inside the batch)", n)
	}
	if buf[0].Op != trace.OpWrite || buf[1].Op != trace.OpWrite || buf[2].Op != trace.OpEnd {
		t.Errorf("ops = %v %v %v, want write write end", buf[0].Op, buf[1].Op, buf[2].Op)
	}
}

// TestDequeueBatchMixedSizes: a one-record batch and a large batch share
// one read head.
func TestDequeueBatchMixedSizes(t *testing.T) {
	q := NewQueue(8)
	for i := 0; i < 6; i++ {
		q.Enqueue(&Record{PC: uint32(i)})
	}
	if r := drain1(t, q); r.PC != 0 {
		t.Fatalf("first record has PC %d", r.PC)
	}
	buf := make([]Record, 8)
	n := q.DequeueBatch(buf)
	if n != 5 {
		t.Fatalf("DequeueBatch after a one-record batch = %d, want 5", n)
	}
	for i := 0; i < n; i++ {
		if buf[i].PC != uint32(i+1) {
			t.Errorf("record %d has PC %d, want %d", i, buf[i].PC, i+1)
		}
	}
}

// TestDequeueBatchConcurrentProducers: four queues, each with its own
// producer, drained in batches larger than a ring can ever fill.
func TestDequeueBatchConcurrentProducers(t *testing.T) {
	runOneProducerPerQueue(t, 4, 8, 6000, 512)
}

func TestBackoffResets(t *testing.T) {
	var bo Backoff
	for i := 0; i < backoffSpins+backoffYields; i++ {
		bo.Wait() // spin/yield phases only; must not sleep
	}
	if bo.n != backoffSpins+backoffYields {
		t.Fatalf("backoff count = %d", bo.n)
	}
	bo.Reset()
	if bo.n != 0 {
		t.Errorf("Reset did not zero the counter")
	}
}
