package gpusim

import (
	"bytes"
	"runtime"
	"testing"
)

// A device that has allocated nothing owns no backing store: opening a
// module used to pay for a MiB that the first Alloc threw away.
func TestNewDeviceAllocatesLazily(t *testing.T) {
	var d *Device
	if n := testing.AllocsPerRun(100, func() { d = NewDevice(0) }); n > 1 {
		t.Errorf("NewDevice: %.0f allocations, want the Device alone", n)
	}
	if cap(d.mem) != 0 {
		t.Errorf("fresh device holds %d bytes of backing store", cap(d.mem))
	}
	const rounds = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		d = NewDevice(0)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > 256 {
		t.Errorf("NewDevice allocates %d bytes, want no more than a Device", per)
	}
}

// Device addresses are in every golden report: they depend on the sizes
// asked for and on nothing about how the backing store grows.
func TestAllocAddressesUnchanged(t *testing.T) {
	sizes := []int{0, 1, 255, 256, 257, 4, 100000, 3, 4096, 1 << 20, 7}
	// Recorded at b25c7ba.
	want := []uint64{0x10000, 0x10000, 0x10100, 0x10200, 0x10300, 0x10500,
		0x10600, 0x28d00, 0x28e00, 0x29e00, 0x129e00}
	d := NewDevice(0)
	for i, n := range sizes {
		if got := d.MustAlloc(n); got != want[i] {
			t.Errorf("Alloc #%d (%d bytes) = %#x, want %#x", i, n, got, want[i])
		}
	}
}

// k Allocs move the backing store O(log k) times, every byte written so
// far survives each move, and newly exposed bytes read zero.
func TestEnsureAmortised(t *testing.T) {
	d := NewDevice(0)
	const k = 1024
	moves, last := 0, (*byte)(nil)
	addrs := make([]uint64, k)
	for i := range addrs {
		a := d.MustAlloc(100)
		if fresh, _ := d.ReadBytes(a, 100); !bytes.Equal(fresh, make([]byte, 100)) {
			t.Fatalf("Alloc #%d handed out non-zero memory", i)
		}
		if err := d.Memset(a, byte(i%251+1), 100); err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
		if p := &d.mem[0]; p != last {
			moves, last = moves+1, p
		}
	}
	// 256 KiB in all, a page to start with, and each move buys a quarter
	// of what it copied: log1.25(64) ≈ 19.
	if moves > 2*19 {
		t.Errorf("%d Allocs moved the backing store %d times", k, moves)
	}
	if end := int(d.next - GlobalBase); len(d.mem) != end {
		t.Errorf("len(mem) = %d, want the allocated extent %d (bounds checks use it)", len(d.mem), end)
	}
	for i, a := range addrs {
		got, err := d.ReadBytes(a, 100)
		if err != nil {
			t.Fatal(err)
		}
		if want := bytes.Repeat([]byte{byte(i%251 + 1)}, 100); !bytes.Equal(got, want) {
			t.Fatalf("allocation #%d lost its contents across growth", i)
		}
	}
}

func TestMemsetPattern(t *testing.T) {
	d := NewDevice(0)
	base := d.MustAlloc(1000)
	fill := func(b byte) {
		t.Helper()
		if err := d.Memset(base, b, 1000); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		off, n int
		b      byte
	}{
		{0, 1000, 0x5a}, // full range
		{1, 1, 0xff},
		{3, 7, 0x01},
		{17, 129, 0xc3}, // not a power of two, odd offset
		{999, 1, 0x80},
		{5, 0, 0x11}, // empty
		{333, 256, 0},
	} {
		fill(0xee)
		if err := d.Memset(base+uint64(c.off), c.b, c.n); err != nil {
			t.Fatalf("Memset(+%d, %#x, %d): %v", c.off, c.b, c.n, err)
		}
		got, _ := d.ReadBytes(base, 1000)
		want := bytes.Repeat([]byte{0xee}, 1000)
		copy(want[c.off:], bytes.Repeat([]byte{c.b}, c.n))
		if !bytes.Equal(got, want) {
			t.Errorf("Memset(+%d, %#x, %d) wrote the wrong bytes", c.off, c.b, c.n)
		}
	}
	err := d.Memset(base+990, 1, 11)
	if want := "gpusim: global access [0x103de,+11) out of bounds"; err == nil || err.Error() != want {
		t.Errorf("out-of-bounds Memset: %v, want %q", err, want)
	}
	if got, _ := d.ReadBytes(base+990, 10); !bytes.Equal(got, bytes.Repeat([]byte{0xee}, 10)) {
		t.Error("a refused Memset wrote bytes")
	}
}
