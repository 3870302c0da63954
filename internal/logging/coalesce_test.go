package logging

import (
	"math/bits"
	"reflect"
	"testing"

	"barracuda/internal/trace"
)

func trailing(m uint32) int { return bits.TrailingZeros32(m) }

// mkRecord builds a record whose active lanes, in lane order, access addrs.
func mkRecord(op trace.OpKind, size uint8, mask uint32, addrs ...uint64) *Record {
	r := &Record{Op: op, Size: size, Mask: mask}
	for m := mask; m != 0 && len(addrs) > 0; m &= m - 1 {
		r.Addrs[trailing(m)] = addrs[0]
		addrs = addrs[1:]
	}
	return r
}

// TestClassifyCoalesced covers the classifier's boundaries: which records
// are coalesced, which are strided, which stay irregular.
func TestClassifyCoalesced(t *testing.T) {
	cases := []struct {
		name   string
		r      *Record
		flags  uint8
		base   uint64
		stride int64
	}{
		{"full-contiguous", mkRecord(trace.OpWrite, 4, 0xF, 100, 104, 108, 112), FlagCoalesced, 100, 0},
		{"single-lane", mkRecord(trace.OpRead, 8, 1<<7, 640), FlagCoalesced, 640, 0},
		{"partial-mask-contiguous", mkRecord(trace.OpRead, 4, 0b1010, 16, 20), FlagCoalesced, 16, 0},
		{"atom-contiguous", mkRecord(trace.OpAtom, 4, 0x3, 40, 44), FlagCoalesced, 40, 0},
		{"strided", mkRecord(trace.OpWrite, 4, 0x7, 0, 8, 16), FlagStrided, 0, 8},
		{"strided-gappy-mask", mkRecord(trace.OpWrite, 4, 0b10100100, 1000, 1600, 2000), FlagStrided, 1000, 200},
		{"descending", mkRecord(trace.OpWrite, 4, 0x3, 104, 100), FlagStrided, 104, -4},
		{"same-address", mkRecord(trace.OpRead, 4, 0x3, 100, 100), FlagStrided, 100, 0},
		{"overlapping", mkRecord(trace.OpWrite, 8, 0x7, 64, 66, 68), FlagStrided, 64, 2},
		{"unaligned-stride", mkRecord(trace.OpRead, 2, 0xF, 7, 20, 33, 46), FlagStrided, 7, 13},
		{"bent", mkRecord(trace.OpWrite, 4, 0x7, 0, 8, 20), 0, 0, 0},
		{"gap-not-dividing", mkRecord(trace.OpWrite, 4, 0b101, 100, 107), 0, 0, 0},
		{"sync-op", mkRecord(trace.OpAcqGlb, 4, 0x3, 100, 104), 0, 0, 0},
		{"barrier", mkRecord(trace.OpBar, 0, 0xF), 0, 0, 0},
		{"zero-size", mkRecord(trace.OpWrite, 0, 0x3, 0, 0), 0, 0, 0},
		{"empty-mask", mkRecord(trace.OpWrite, 4, 0), 0, 0, 0},
	}
	for _, tc := range cases {
		want := *tc.r
		tc.r.Flags, tc.r.Base, tc.r.Stride = 0xff, 1, 1 // stale tags must not survive
		tc.r.Classify()
		if got := tc.r.Flags &^ 0xfc; got != tc.flags || tc.r.Base != tc.base || tc.r.Stride != tc.stride {
			t.Errorf("%s: flags %#x base %d stride %d, want %#x %d %d",
				tc.name, got, tc.r.Base, tc.r.Stride, tc.flags, tc.base, tc.stride)
		}
		for m := tc.r.Mask; m != 0; m &= m - 1 {
			if lane := trailing(m); tc.r.LaneAddr(lane) != want.Addrs[lane] {
				t.Errorf("%s: LaneAddr(%d) = %d, want %d", tc.name, lane, tc.r.LaneAddr(lane), want.Addrs[lane])
			}
		}
	}
}

// TestLaneAddrMatchesAddrs: for a classified record the compact encoding
// must reproduce the address array exactly, at every active lane.
func TestLaneAddrMatchesAddrs(t *testing.T) {
	r := &Record{Op: trace.OpWrite, Size: 8, Mask: 0xFFF0_00F1}
	// Fill ascending contiguous addresses over the active lanes.
	rank := 0
	for lane := 0; lane < WarpWidth; lane++ {
		if r.Mask&(1<<uint(lane)) == 0 {
			continue
		}
		r.Addrs[lane] = 0x1000 + uint64(rank)*8
		rank++
	}
	r.Classify()
	if r.Flags&FlagCoalesced == 0 {
		t.Fatal("contiguous record not classified coalesced")
	}
	for lane := 0; lane < WarpWidth; lane++ {
		if r.Mask&(1<<uint(lane)) == 0 {
			continue
		}
		if got, want := r.LaneAddr(lane), r.Addrs[lane]; got != want {
			t.Errorf("LaneAddr(%d) = %#x, want %#x", lane, got, want)
		}
	}
	// Irregular records fall back to the array.
	r.Flags = 0
	r.Addrs[4] = 0xdead
	if r.Mask&(1<<4) != 0 && r.LaneAddr(4) != 0xdead {
		t.Errorf("irregular LaneAddr ignored Addrs")
	}
}

// TestEncoderCoversAllScalarFields is the drift guard: every non-array
// field of Record must cross the queue, so a future field addition
// cannot silently vanish on the wire.
func TestEncoderCoversAllScalarFields(t *testing.T) {
	var src Record
	sv := reflect.ValueOf(&src).Elem()
	rt := sv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Type.Kind() == reflect.Array {
			continue // Addrs, Vals: travel by the wire form's rules
		}
		fv := sv.Field(i)
		switch f.Type.Kind() {
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
			fv.SetUint(uint64(0xa1 + i))
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
			fv.SetInt(-int64(0xa1 + i))
		default:
			t.Fatalf("Record field %s has kind %v: teach this test and the encoder about it", f.Name, f.Type.Kind())
		}
	}
	q := NewQueue(2)
	q.Enqueue(&src)
	dst := drain1(t, q)
	for i := 0; i < rt.NumField(); i++ {
		if rt.Field(i).Type.Kind() == reflect.Array {
			continue
		}
		if !reflect.DeepEqual(sv.Field(i).Interface(), reflect.ValueOf(&dst).Elem().Field(i).Interface()) {
			t.Errorf("the queue loses Record.%s — update encode and decode for the new field", rt.Field(i).Name)
		}
	}
}

// TestWireSkipsCoalescedArrays: a compact record's Addrs do not travel,
// nor do Vals unless it is a write whose lanes can share a shadow cell;
// irregular records ship their active lanes.
func TestWireSkipsCoalescedArrays(t *testing.T) {
	q := NewQueue(8)
	const sentinel = 0xBBBB_BBBB_BBBB_BBBB
	// send pushes r through the queue into a destination pre-filled with
	// a sentinel, so an array the wire skipped is observable.
	send := func(r *Record) Record {
		t.Helper()
		q.Enqueue(r)
		buf := make([]Record, 1)
		for i := range buf[0].Addrs {
			buf[0].Addrs[i], buf[0].Vals[i] = sentinel, sentinel
		}
		if q.DequeueBatch(buf) != 1 {
			t.Fatal("record did not arrive")
		}
		return buf[0]
	}
	bytes := func() uint64 { return counters(q).Bytes }

	r := mkRecord(trace.OpRead, 4, 0x3, 100, 104)
	r.Classify()
	got := send(r)
	if got.Flags&FlagCoalesced == 0 || got.Base != 100 || got.Mask != 0x3 || got.Op != trace.OpRead {
		t.Fatalf("header mangled: %+v", got)
	}
	if got.Addrs[0] != sentinel || got.Vals[0] != sentinel || bytes() != 8*headerWords {
		t.Errorf("coalesced read shipped arrays: addr %#x val %#x, %d bytes", got.Addrs[0], got.Vals[0], bytes())
	}
	if got.LaneAddr(0) != 100 || got.LaneAddr(1) != 104 {
		t.Errorf("LaneAddr after wire = %#x,%#x want 100,104", got.LaneAddr(0), got.LaneAddr(1))
	}

	// Word-sized lanes on word boundaries never meet: no Vals either.
	w := mkRecord(trace.OpWrite, 4, 0x3, 200, 204)
	w.Vals[0], w.Vals[1] = 7, 9
	w.Classify()
	if got = send(w); got.Vals[0] != sentinel || got.LaneAddr(1) != 204 {
		t.Errorf("disjoint coalesced write shipped Vals %#x or lost its address", got.Vals[0])
	}
	// Byte-sized lanes share a word cell: Vals travel, Addrs still do not.
	b := mkRecord(trace.OpWrite, 1, 0x5, 200, 201)
	b.Vals[0], b.Vals[2] = 7, 9
	b.Classify()
	if got = send(b); got.Vals[0] != 7 || got.Vals[2] != 9 || got.Vals[1] != sentinel || got.Addrs[0] != sentinel {
		t.Errorf("sub-word coalesced write: vals %v addr %#x", got.Vals[:3], got.Addrs[0])
	}

	full := mkRecord(trace.OpWrite, 4, 0x5, 300, 312)
	full.Vals[0], full.Vals[2] = 1, 2
	if got = send(full); got.Addrs[0] != 300 || got.Addrs[2] != 312 || got.Addrs[1] != sentinel ||
		got.Vals[0] != 1 || got.Vals[2] != 2 {
		t.Errorf("irregular write lost its active lanes: %v %v", got.Addrs[:3], got.Vals[:3])
	}
}
