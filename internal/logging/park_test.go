package logging

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"barracuda/internal/trace"
)

// untilParked waits for p's side to store its flag: it has polled
// awaitPolls times and is about to block, or has blocked.
func untilParked(t *testing.T, p *parking) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !p.parked.Load(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the waiting side never parked")
		}
	}
}

// returns fails t unless done closes within a generous bound: a lost
// wake-up shows up as a hang, and a hang should fail, not time out.
func returns(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked after 10 s", what)
	}
}

// TestParkConsumerWokenByEnqueue: a consumer parked on an empty queue is
// woken by one Enqueue, and the flag is cleared for the next park.
func TestParkConsumerWokenByEnqueue(t *testing.T) {
	q := NewQueue(8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.Await()
	}()
	untilParked(t, &q.consumer)
	q.Enqueue(&Record{Op: trace.OpWrite, PC: 7})
	returns(t, done, "Await after one Enqueue")
	if r := drain1(t, q); r.PC != 7 {
		t.Errorf("dequeued PC %d, want 7", r.PC)
	}
	if c := counters(q); c.Parks != 1 || q.consumer.parked.Load() {
		t.Errorf("Parks = %d, parked flag %v; want 1 and cleared", c.Parks, q.consumer.parked.Load())
	}
}

// TestParkEndOfStreamWakesConsumer: the end-of-stream record is a commit
// like any other, so it wakes a detector thread parked on an idle queue.
func TestParkEndOfStreamWakesConsumer(t *testing.T) {
	s := NewSet(1, 8)
	q := s.Queues[0]
	done := make(chan struct{})
	go func() {
		defer close(done)
		consume(q, 4, func(r *Record) { t.Errorf("unexpected record %+v", *r) })
	}()
	untilParked(t, &q.consumer)
	s.CloseAll()
	returns(t, done, "consumer after CloseAll")
	if c := s.Counters(); c.Parks == 0 || c.Records != 1 {
		t.Errorf("counters %+v, want a park and the sentinel", c)
	}
}

// TestParkProducerWokenByDequeueBatch: a producer parked on a full
// two-record ring is woken by one DequeueBatch that frees room.
func TestParkProducerWokenByDequeueBatch(t *testing.T) {
	q := NewQueue(2)
	a, b, c := worstCase(1), worstCase(2), worstCase(3)
	q.Enqueue(&a)
	q.Enqueue(&b)
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.Enqueue(&c)
	}()
	untilParked(t, &q.producer)
	if r := drain1(t, q); r != a {
		t.Fatal("first record changed in transit")
	}
	returns(t, done, "Enqueue after one DequeueBatch")
	buf := make([]Record, 4)
	if n := q.DequeueBatch(buf); n != 2 || buf[0] != b || buf[1] != c {
		t.Fatalf("DequeueBatch = %d records, or changed in transit", n)
	}
	if cs := counters(q); cs.FullWaits != 1 || q.producer.parked.Load() {
		t.Errorf("FullWaits = %d, parked flag %v; want 1 and cleared", cs.FullWaits, q.producer.parked.Load())
	}
}

// TestParkHandoffUnderPauses drives 200 000 records through the smallest
// ring, where both sides park, and through a 4096-record ring, where only
// the consumer does, with a producer that pauses at random for long
// enough that the consumer runs out of polls. Every record must arrive in
// order, the counters must balance, and neither side may hang.
func TestParkHandoffUnderPauses(t *testing.T) {
	const records = 200_000
	for _, procs := range []int{1, 4} {
		for _, capacity := range []int{2, 4096} {
			t.Run(fmt.Sprintf("procs-%d/cap-%d", procs, capacity), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				q := NewQueue(capacity)
				done := make(chan struct{})
				go func() {
					defer close(done)
					rng := rand.New(rand.NewSource(int64(procs*capacity + 1)))
					var r Record
					for i := 0; i < records; i++ {
						if rng.Intn(5000) == 0 {
							time.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
						}
						stressRecord(&r, 0, i)
						q.Enqueue(&r)
					}
					q.Enqueue(&Record{Op: trace.OpEnd})
				}()
				got, bad := 0, -1
				var want Record
				drained := make(chan struct{})
				go func() {
					defer close(drained)
					consume(q, 256, func(r *Record) {
						if stressRecord(&want, 0, got); bad < 0 && !sameOnWire(r, &want) {
							bad = got
						}
						got++
					})
				}()
				returns(t, drained, "consumer")
				returns(t, done, "producer")
				if bad >= 0 {
					t.Errorf("record %d changed in transit", bad)
				}
				c := counters(q)
				if got != records || c.Records != records+1 || pending(q) != 0 {
					t.Errorf("consumed %d, enqueued %d, %d bytes pending; want %d, %d, 0",
						got, c.Records, pending(q), records, records+1)
				}
				if c.Parks == 0 {
					t.Errorf("the consumer never parked: %+v", c)
				}
				if capacity == 2 && c.FullWaits == 0 {
					t.Errorf("a two-record ring never filled: %+v", c)
				}
			})
		}
	}
}
