package logging

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"barracuda/internal/trace"
)

// sameOnWire reports whether got is what the queue owes a consumer of
// want: every header field, each active lane's LaneAddr on a memory
// record, and each active lane's Vals where the queue must keep them.
func sameOnWire(got, want *Record) bool {
	g, w := *got, *want
	g.Addrs, g.Vals, w.Addrs, w.Vals = [WarpWidth]uint64{}, [WarpWidth]uint64{}, [WarpWidth]uint64{}, [WarpWidth]uint64{}
	if g != w {
		return false
	}
	if !want.Op.IsMemory() {
		return true
	}
	vals := (&Queue{gran: wordGranule}).needsVals(want)
	for m := want.Mask; m != 0; m &= m - 1 {
		lane := trailing(m)
		if got.LaneAddr(lane) != want.LaneAddr(lane) || (vals && got.Vals[lane] != want.Vals[lane]) {
			return false
		}
	}
	return true
}

// byteSource deals out a fuzz input, then zeros.
type byteSource []byte

func (b *byteSource) u8() uint8 {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *byteSource) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b.u8())
	}
	return v
}

// recordFrom builds one record out of src: any OpKind, any mask, sizes
// 1/2/4/8, and addresses that are arbitrary, rank-contiguous (coalesced)
// or lane-affine with any int64 stride — negative, zero, below Size,
// unaligned. Some lane-affine records stay unclassified, as a producer
// that never called Classify would send them, and some compact ones
// drop the Addrs they no longer need.
func recordFrom(src *byteSource) Record {
	r := Record{
		Op: trace.OpKind(src.u8() % uint8(trace.OpFlush+1)), Space: SpaceID(src.u8() % 3),
		Size: 1 << (src.u8() % 4), Mask: uint32(src.u64()),
		Warp: uint32(src.u64()), Block: uint32(src.u8()), PC: uint32(src.u64()), Seq: src.u64(),
	}
	shape := src.u8()
	base, stride := src.u64(), int64(src.u64())
	if shape&4 != 0 {
		stride = int64(int8(stride)) // small strides are where lanes meet
	}
	rank := uint64(0)
	for m := r.Mask; m != 0; m &= m - 1 {
		lane := trailing(m)
		r.Vals[lane] = src.u64()
		switch shape & 3 {
		case 0:
			r.Addrs[lane] = src.u64()
		case 1:
			r.Addrs[lane] = base + rank*uint64(r.Size)
		default:
			r.Addrs[lane] = base + uint64(int64(lane)*stride)
		}
		rank++
	}
	if shape&8 == 0 {
		r.Classify()
	}
	if r.Flags != 0 && shape&16 != 0 {
		r.Addrs = [WarpWidth]uint64{}
	}
	return r
}

// roundTrip pushes recs through a ring of the given capacity, a few at a
// time so the ring wraps, and checks each against sameOnWire.
func roundTrip(t *testing.T, recs []Record, capacity int) {
	t.Helper()
	q := NewQueue(capacity)
	buf := make([]Record, 2)
	for i := 0; i < len(recs); i += 2 {
		pair := recs[i:min(i+2, len(recs))]
		for k := range pair {
			q.Enqueue(&pair[k])
		}
		if n := q.DequeueBatch(buf); n != len(pair) {
			t.Fatalf("record %d: DequeueBatch = %d, want %d", i, n, len(pair))
		}
		for k := range pair {
			if !sameOnWire(&buf[k], &pair[k]) {
				t.Fatalf("record %d changed in transit:\n got %+v\nwant %+v", i+k, buf[k], pair[k])
			}
		}
	}
	if c := counters(q); c.Records != uint64(len(recs)) || c.FullWaits != 0 {
		t.Errorf("counters %+v after %d records", c, len(recs))
	}
}

// TestQueueRoundTripProperty: random records of every op, mask, size and
// address shape come out of the queue meaning what they meant going in.
func TestQueueRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	forms := map[uint8]int{}
	recs := make([]Record, 20000)
	for i := range recs {
		raw := make(byteSource, 64+rng.Intn(600))
		rng.Read(raw)
		if i%3 == 0 {
			copy(raw[3:10], make([]byte, 7)) // at most eight lanes, often one
			raw[10] &= byte(rng.Intn(256))
		}
		recs[i] = recordFrom(&raw)
		if recs[i].Op.IsMemory() {
			forms[recs[i].Flags]++
		}
	}
	if forms[0] == 0 || forms[FlagCoalesced] == 0 || forms[FlagStrided] == 0 {
		t.Fatalf("generator misses a wire form: %v", forms)
	}
	roundTrip(t, recs, 2)
}

// FuzzQueueRoundTrip is the same property over fuzzer-built records.
func FuzzQueueRoundTrip(f *testing.F) {
	// seed lays out recordFrom's input: one record, values left zero.
	seed := func(op trace.OpKind, space SpaceID, sizeLog uint8, mask uint32, shape uint8, base uint64, stride int64) []byte {
		b := []byte{byte(op), byte(space), sizeLog}
		b = binary.BigEndian.AppendUint64(b, uint64(mask))
		b = append(b, make([]byte, 25)...) // warp, block, pc, seq
		b = append(b, shape)
		b = binary.BigEndian.AppendUint64(b, base)
		return binary.BigEndian.AppendUint64(b, uint64(stride))
	}
	f.Add([]byte{})
	f.Add(seed(trace.OpWrite, SpaceGlobal, 2, 0xffffffff, 2, 0x10000, 640))    // strided, header only
	f.Add(seed(trace.OpWrite, SpaceShared, 2, 0x0000ff0f, 2, 64, 0))           // stride 0: values travel
	f.Add(seed(trace.OpWrite, SpaceGlobal, 0, 0xffffffff, 1, 0x10001, 0))      // coalesced bytes share words
	f.Add(seed(trace.OpRead, SpaceGlobal, 3, 0x80000001, 6, 1<<40, -3))        // negative unaligned stride
	f.Add(seed(trace.OpWrite, SpaceGlobal, 2, 0xffffffff, 2+8, 0x10000, 4))    // lane-affine, never classified
	f.Add(seed(trace.OpAtom, SpaceGlobal, 2, 0x00010000, 0, 0, 0))             // single lane
	f.Add(seed(trace.OpBarRel, SpaceGlobal, 0, 0xffffffff, 0, 0, 0))           // control: header only
	f.Add(seed(trace.OpRelGlb, SpaceGlobal, 2, 0x3, 2+16, 0x20000, 4))         // sync: never compact
	f.Add(append(seed(trace.OpWrite, SpaceGlobal, 3, 0xffffffff, 0, 0, 0), 1)) // irregular: the worst case
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		var recs []Record
		for len(recs) < 8 && (len(src) > 0 || len(recs) == 0) {
			recs = append(recs, recordFrom(&src))
		}
		roundTrip(t, recs, 1)
	})
}

// worstCase is a record of the largest wire form, every word distinct.
func worstCase(tag uint64) Record {
	r := Record{Op: trace.OpWrite, Size: 8, Mask: 0xffffffff, PC: uint32(tag), Seq: tag}
	for lane := range r.Addrs {
		r.Addrs[lane] = tag<<16 | uint64(lane*lane)
		r.Vals[lane] = ^(tag<<16 | uint64(lane))
	}
	return r
}

// TestWrapAtEveryOffset fills a two-record ring to the last byte with two
// worst-case records starting at every offset the ring has: each lap an
// 11-word filler moves the start on, and 11 is coprime to the ring's 140
// words.
func TestWrapAtEveryOffset(t *testing.T) {
	q := NewQueue(2)
	ring := uint64(len(q.buf))
	seen := map[uint64]bool{}
	buf := make([]Record, 2)
	for step := uint64(0); step < ring; step++ {
		seen[q.wpos] = true
		a, b := worstCase(2*step), worstCase(2*step+1)
		q.Enqueue(&a)
		q.Enqueue(&b)
		if w, c, _ := q.Stats(); w != c || pending(q) != 8*ring {
			t.Fatalf("offset %d: ring not exactly full: %d bytes pending", q.wpos, pending(q))
		}
		if n := q.DequeueBatch(buf); n != 2 || buf[0] != a || buf[1] != b {
			t.Fatalf("offset %d: %d records, or changed in transit", q.wpos, n)
		}
		filler := Record{Op: trace.OpRead, Mask: 0x1f}
		q.Enqueue(&filler)
		drain1(t, q)
	}
	if uint64(len(seen)) != ring {
		t.Errorf("visited %d start offsets of %d", len(seen), ring)
	}
	if c := counters(q); c.FullWaits != 0 || c.Bytes != 8*ring*(ring+11) {
		t.Errorf("counters %+v", c)
	}
}

// TestWorstCaseThroughSmallestRing: QueueCap 1 is a two-record ring, and
// a stream of nothing but worst-case records must flow through it.
func TestWorstCaseThroughSmallestRing(t *testing.T) {
	q := NewSet(1, 1).Queues[0]
	const n = 3000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); i < n; i++ {
			r := worstCase(i)
			q.Enqueue(&r)
		}
		q.Enqueue(&Record{Op: trace.OpEnd})
	}()
	next := uint64(0)
	consume(q, 256, func(r *Record) {
		if want := worstCase(next); *r != want {
			t.Fatalf("record %d changed in transit", next)
		}
		next++
	})
	<-done
	if next != n {
		t.Errorf("consumed %d records, want %d", next, n)
	}
}

// TestNeedsVals pins when stored values travel: only for writes in which
// two active lanes can land in one shadow cell at the coarsest granule a
// region can have, max(4, Granularity).
func TestNeedsVals(t *testing.T) {
	strided := func(space SpaceID, op trace.OpKind, size uint8, mask uint32, base uint64, stride int64) Record {
		return Record{Op: op, Space: space, Size: size, Mask: mask, Flags: FlagStrided, Base: base, Stride: stride}
	}
	coalesced := func(size uint8, mask uint32, base uint64) Record {
		return Record{Op: trace.OpWrite, Size: size, Mask: mask, Flags: FlagCoalesced, Base: base}
	}
	const g, wr = SpaceGlobal, trace.OpWrite
	cases := []struct {
		name string
		r    Record
		want [3]bool // at Granularity 1, 8, 64
	}{
		{"stride 0", strided(g, wr, 4, 0xffffffff, 4096, 0), [3]bool{true, true, true}},
		{"stride 0, single lane", strided(g, wr, 4, 1<<9, 4096, 0), [3]bool{false, false, false}},
		{"stride below size", strided(g, wr, 8, 0x3, 4096, 4), [3]bool{true, true, true}},
		{"negative stride below size", strided(g, wr, 8, 0x3, 4096, -4), [3]bool{true, true, true}},
		{"stride 4, u32, aligned", strided(g, wr, 4, 0xf0, 4096, 4), [3]bool{false, true, true}},
		{"stride 4, u32, misaligned: lanes straddle words", strided(g, wr, 4, 0xf0, 4098, 4), [3]bool{true, true, true}},
		{"stride 8, u32, aligned", strided(g, wr, 4, 0xff, 4096, 8), [3]bool{false, false, true}},
		{"stride -8, u32, aligned", strided(g, wr, 4, 0xff, 4096, -8), [3]bool{false, false, true}},
		{"stride 8, u32, misaligned", strided(g, wr, 4, 0xff, 4097, 8), [3]bool{false, true, true}},
		{"stride 64, u64", strided(g, wr, 8, 0xffffffff, 1<<20, 64), [3]bool{false, false, false}},
		{"stride 640, u32, unaligned base", strided(g, wr, 4, 0xffffffff, 4099, 640), [3]bool{false, false, false}},
		{"stride 70, u32: clears a 64-byte cell at any alignment", strided(g, wr, 4, 0x3, 4099, 70), [3]bool{false, false, false}},
		{"stride 66, u32", strided(g, wr, 4, 0x3, 4099, 66), [3]bool{false, false, true}},
		{"coalesced u32, aligned", coalesced(4, 0xffffffff, 4096), [3]bool{false, true, true}},
		{"coalesced u64, aligned", coalesced(8, 0xffffffff, 4096), [3]bool{false, false, true}},
		{"coalesced u8", coalesced(1, 0xffffffff, 4096), [3]bool{true, true, true}},
		{"coalesced, single lane", coalesced(1, 0x10, 4097), [3]bool{false, false, false}},
		{"shared: out-of-slab lanes clamp to one cell", strided(SpaceShared, wr, 4, 0x3, 0, 640), [3]bool{true, true, true}},
		{"irregular", Record{Op: wr, Size: 4, Mask: 0x3}, [3]bool{true, true, true}},
		{"irregular, single lane", Record{Op: wr, Size: 4, Mask: 0x2}, [3]bool{false, false, false}},
		{"read", strided(g, trace.OpRead, 4, 0xffffffff, 4096, 0), [3]bool{false, false, false}},
		{"atomic", strided(g, trace.OpAtom, 4, 0xffffffff, 4096, 0), [3]bool{false, false, false}},
		{"release", Record{Op: trace.OpRelGlb, Size: 4, Mask: 0x3}, [3]bool{false, false, false}},
	}
	for gi, gran := range []int{1, 8, 64} {
		set := NewSet(1, 2)
		set.SetGranularity(gran)
		for _, tc := range cases {
			if got := set.Queues[0].needsVals(&tc.r); got != tc.want[gi] {
				t.Errorf("granularity %d, %s: needsVals = %v, want %v", gran, tc.name, got, tc.want[gi])
			}
		}
	}
	if NewQueue(2).gran != 4 {
		t.Error("a new queue must assume the default configuration's word cells")
	}
}
