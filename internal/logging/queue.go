// Package logging implements the device-to-host event channel of
// BARRACUDA (§4.2, Figure 6): warp-level records carried by lock-free
// ring queues whose contents are tracked by three monotonically
// increasing virtual indices — a write head (next byte available for
// writing by the GPU-side instrumentation), a commit index (bytes
// transferred and visible to the host), and a read head (next byte to be
// consumed by the host race detector). Virtual indices are mapped to
// physical positions by modulus with the ring size.
//
// The paper's ring holds fixed records, a header plus one address slot
// per lane. Ours holds each record at the size it needs: a 48-byte header
// and only what the header cannot reconstruct (see Queue), so the same
// bytes hold several times the records when accesses are lane-affine.
//
// Multiple queues are used (the paper finds ~1.1–1.5 queues per SM
// optimal); each thread block sends all of its events to a single queue,
// which lets the host process a block's shared-memory operations on a
// single thread without locking.
package logging

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"barracuda/internal/trace"
)

// Backoff is a bounded exponential spin-wait for the queue's spin loops:
// a few hot spins (the producer or consumer is usually only nanoseconds
// away), then cooperative yields, then sleeps that double up to a cap.
// The cap keeps wake-up latency bounded while letting idle consumers at
// high queue counts stop burning cores — the paper's many-queue
// configurations (~1.1–1.5 queues per SM) only pay off if a quiet
// queue's detector thread costs (almost) nothing.
type Backoff struct {
	n uint32
}

const (
	backoffSpins  = 4                // hot spins before yielding
	backoffYields = 8                // Gosched rounds before sleeping
	backoffCapExp = 7                // sleep cap: 1µs << 7 = 128µs
	backoffUnit   = time.Microsecond // first sleep duration
)

// Wait performs one backoff step.
func (b *Backoff) Wait() {
	switch {
	case b.n < backoffSpins:
		// Hot spin: nothing but the loop itself.
	case b.n < backoffSpins+backoffYields:
		runtime.Gosched()
	default:
		exp := b.n - backoffSpins - backoffYields
		if exp > backoffCapExp {
			exp = backoffCapExp
		}
		time.Sleep(backoffUnit << exp)
	}
	b.n++
}

// Reset returns the backoff to the hot-spin phase; call it after the
// awaited condition fires so the next wait starts cheap again.
func (b *Backoff) Reset() { b.n = 0 }

// Wire form of a record, in 8-byte words (every field group is a multiple
// of eight bytes, so the ring is a []uint64 with sizes quoted in bytes):
//
//	word 0  Op | Space<<8 | Size<<16 | Flags<<24 | words<<32 | form<<40
//	word 1  Warp | Block<<32
//	word 2  Mask | PC<<32
//	words 3-5  Base, Stride, Seq
//	then, if form has formAddrs, one address per active lane in lane order
//	then, if form has formVals, one value per active lane in lane order
//
// words is the record's length, so word 0 says where the next one starts.
const (
	headerWords    = 6
	maxRecordWords = headerWords + 2*WarpWidth // an irregular 32-lane write: 560 bytes

	formAddrs = 1 << 0
	formVals  = 1 << 1

	// wordGranule is the coarsest shadow cell of a default-configuration
	// detector: regions start at one cell per aligned 4-byte word.
	wordGranule = 4
)

// Counters is one queue's — or, summed, one run's — transport census.
// Each field is a plain counter written by the producer or the consumer
// alone, so read them only once both have stopped.
type Counters struct {
	Records, Bytes                uint64        // enqueued, control records included
	Coalesced, Strided, Irregular uint64        // memory records by wire form
	WithVals                      uint64        // records that shipped Vals
	FullWaits                     uint64        // enqueues that found the ring full
	Blocked                       time.Duration // producer time spent in those waits
	EmptyPolls                    uint64        // DequeueBatch calls that found nothing
}

// Queue is a bounded single-producer single-consumer ring of encoded
// records. Every queue in the tree has one producer — the simulator is a
// single goroutine by contract (package gpusim) and detector.Replay feeds
// each queue from a goroutine of its own — so there is no reservation to
// arbitrate: the producer advances the write head, encodes the record
// behind it and publishes it with one release-store of the commit index;
// the consumer acquire-loads commit, decodes up to it and release-stores
// the read head, which is what the producer waits on when the ring is full.
//
// Enqueue writes the header and then only what the header cannot
// reconstruct: nothing for compact records, the active lanes' addresses
// for irregular memory records, and the active lanes' Vals only for
// writes whose lanes can meet in one shadow cell — the only case in which
// the same-value filter compares them.
type Queue struct {
	buf  []uint64
	gran uint64 // coarsest shadow granule of the consuming detector

	// Producer side; virtual indices count words.
	writeHead atomic.Uint64
	commit    atomic.Uint64
	wpos      uint64 // commit mod len(buf)
	readSeen  uint64 // last read head the producer loaded
	prod      Counters
	wbuf      [maxRecordWords]uint64 // the record being encoded

	// Consumer side (wbuf keeps its stores off the producer's cache lines).
	readHead atomic.Uint64
	rpos     uint64 // readHead mod len(buf)
	polls    uint64
	rbuf     [maxRecordWords]uint64 // a record that straddles the ring's end
}

// NewQueue creates a queue that always has room for capacity records
// (rounded up to a power of two, minimum 2) of the worst-case size, and so
// for proportionally more compact ones. The consumer is assumed to run at
// the default shadow granularity; see Set.SetGranularity.
func NewQueue(capacity int) *Queue {
	c := 2
	for c < capacity {
		c <<= 1
	}
	return &Queue{buf: make([]uint64, c*maxRecordWords), gran: wordGranule}
}

// Cap returns the number of worst-case records the ring holds.
func (q *Queue) Cap() int { return len(q.buf) / maxRecordWords }

// needsVals reports whether the consumer can come to compare two lanes'
// stored values: a write with two active lanes that can land in one
// shadow cell at the coarsest granule a region can have. A shared slab
// folds every out-of-slab address into one clamp cell and an irregular
// record's lanes are not worth a pairwise check, so both always ship.
func (q *Queue) needsVals(r *Record) bool {
	if r.Op != trace.OpWrite || r.Mask&(r.Mask-1) == 0 {
		return false
	}
	if r.Space == SpaceShared || r.Flags&flagCompact == 0 {
		return true
	}
	stride := r.Stride
	if r.Flags&FlagCoalesced != 0 {
		stride = int64(r.Size)
	}
	return LanesMayShareCell(r.Base, stride, r.Size, q.gran)
}

// pack copies src's active lanes to the front of dst; unpack undoes it.
// Both return the number of lanes.
func pack(dst []uint64, src *[WarpWidth]uint64, mask uint32) int {
	k := 0
	for ; mask != 0; mask &= mask - 1 {
		dst[k] = src[bits.TrailingZeros32(mask)]
		k++
	}
	return k
}

func unpack(dst *[WarpWidth]uint64, src []uint64, mask uint32) int {
	k := 0
	for ; mask != 0; mask &= mask - 1 {
		dst[bits.TrailingZeros32(mask)] = src[k]
		k++
	}
	return k
}

// encode writes r's wire form into q.wbuf, counts it, and returns its
// length in words.
func (q *Queue) encode(r *Record) uint64 {
	dst, c := &q.wbuf, &q.prod
	k, form := headerWords, uint64(0)
	if r.Op.IsMemory() {
		switch {
		case r.Flags&FlagCoalesced != 0:
			c.Coalesced++
		case r.Flags&FlagStrided != 0:
			c.Strided++
		default:
			c.Irregular++
			form = formAddrs
			k += pack(dst[k:], &r.Addrs, r.Mask)
		}
		if q.needsVals(r) {
			c.WithVals++
			form |= formVals
			k += pack(dst[k:], &r.Vals, r.Mask)
		}
	}
	c.Records++
	c.Bytes += 8 * uint64(k)
	dst[0] = uint64(r.Op) | uint64(r.Space)<<8 | uint64(r.Size)<<16 | uint64(r.Flags)<<24 |
		uint64(k)<<32 | form<<40
	dst[1] = uint64(r.Warp) | uint64(r.Block)<<32
	dst[2] = uint64(r.Mask) | uint64(r.PC)<<32
	dst[3], dst[4], dst[5] = r.Base, uint64(r.Stride), r.Seq
	return uint64(k)
}

// decode is encode's inverse. Lanes and arrays that did not travel keep
// whatever r held.
func decode(src []uint64, r *Record) {
	w := src[0]
	r.Op, r.Space, r.Size, r.Flags = trace.OpKind(w), SpaceID(w>>8), uint8(w>>16), uint8(w>>24)
	r.Warp, r.Block = uint32(src[1]), uint32(src[1]>>32)
	r.Mask, r.PC = uint32(src[2]), uint32(src[2]>>32)
	r.Base, r.Stride, r.Seq = src[3], int64(src[4]), src[5]
	k := headerWords
	if w>>40&formAddrs != 0 {
		k += unpack(&r.Addrs, src[k:], r.Mask)
	}
	if w>>40&formVals != 0 {
		unpack(&r.Vals, src[k:], r.Mask)
	}
}

// Enqueue appends a record, waiting (with bounded exponential backoff)
// while the ring has no room for it. One producer goroutine per queue.
func (q *Queue) Enqueue(r *Record) {
	words := q.encode(r)
	n := uint64(len(q.buf))
	head := q.commit.Load() + words
	if head-q.readSeen > n {
		q.awaitRoom(head - n)
	}
	q.writeHead.Store(head)
	k := copy(q.buf[q.wpos:], q.wbuf[:words])
	if q.wpos += words; q.wpos >= n { // the rest, if any, goes to the front
		q.wpos = uint64(copy(q.buf, q.wbuf[k:words]))
	}
	q.commit.Store(head)
}

// awaitRoom blocks until the read head has reached need. The backoff
// matters most at GOMAXPROCS=1, where a hard spin against a descheduled
// consumer would make progress only through involuntary preemption.
func (q *Queue) awaitRoom(need uint64) {
	if q.readSeen = q.readHead.Load(); q.readSeen >= need {
		return
	}
	q.prod.FullWaits++
	start := time.Now()
	var bo Backoff
	for q.readSeen < need {
		bo.Wait()
		q.readSeen = q.readHead.Load()
	}
	q.prod.Blocked += time.Since(start)
}

// DequeueBatch decodes up to len(dst) committed records into dst and
// returns how many (0 when the queue is empty). One call is a single
// atomic handshake — one commit load and one read-head store — which is
// what lets a consumer amortize the transport cost over a whole batch.
// One consumer goroutine per queue.
//
// Everything below the commit index is fully written: the producer
// release-stores commit after encoding, so the acquire-load here makes
// every word read safe; the read-head store hands the space back only
// once the records are decoded out of it.
func (q *Queue) DequeueBatch(dst []Record) int {
	head := q.readHead.Load()
	avail := q.commit.Load() - head
	if avail == 0 || len(dst) == 0 {
		q.polls++
		return 0
	}
	n := uint64(len(q.buf))
	got := 0
	for ; got < len(dst) && avail > 0; got++ {
		words := q.buf[q.rpos] >> 32 & 0xff
		src := q.buf[q.rpos:]
		if q.rpos += words; q.rpos >= n {
			k := copy(q.rbuf[:], src)
			q.rpos = uint64(copy(q.rbuf[k:words], q.buf))
			src = q.rbuf[:]
		}
		decode(src, &dst[got])
		head += words
		avail -= words
	}
	q.readHead.Store(head)
	return got
}

// Stats reports the three virtual indices, in bytes.
func (q *Queue) Stats() (writeHead, commit, readHead uint64) {
	return 8 * q.writeHead.Load(), 8 * q.commit.Load(), 8 * q.readHead.Load()
}

// Set is a group of queues with thread-block affinity: block b always logs
// to queue b mod len(queues), mirroring the paper's block-to-queue mapping.
type Set struct {
	Queues []*Queue
}

// NewSet creates n queues of the given per-queue capacity.
func NewSet(n, capacity int) *Set {
	if n < 1 {
		n = 1
	}
	s := &Set{Queues: make([]*Queue, n)}
	for i := range s.Queues {
		s.Queues[i] = NewQueue(capacity)
	}
	return s
}

// SetGranularity tells the queues, before any record is enqueued, the
// shadow granularity of the detector that consumes them: a region's
// cells are never coarser than a word or that granularity, whichever is
// larger, and Vals travel only when two lanes can share such a cell.
func (s *Set) SetGranularity(g int) {
	for _, q := range s.Queues {
		q.gran = uint64(max(g, wordGranule))
	}
}

// ForBlock returns the queue assigned to thread block b.
func (s *Set) ForBlock(b int) *Queue {
	return s.Queues[b%len(s.Queues)]
}

// CloseAll enqueues an end-of-stream sentinel on every queue: the
// producer's last act, on the producer's goroutine.
func (s *Set) CloseAll() {
	for _, q := range s.Queues {
		q.Enqueue(&Record{Op: trace.OpEnd})
	}
}

// Counters sums the queues' censuses.
func (s *Set) Counters() Counters {
	var c Counters
	for _, q := range s.Queues {
		c.Records += q.prod.Records
		c.Bytes += q.prod.Bytes
		c.Coalesced += q.prod.Coalesced
		c.Strided += q.prod.Strided
		c.Irregular += q.prod.Irregular
		c.WithVals += q.prod.WithVals
		c.FullWaits += q.prod.FullWaits
		c.Blocked += q.prod.Blocked
		c.EmptyPolls += q.polls
	}
	return c
}
