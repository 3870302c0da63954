// Package gpusim is a SIMT execution simulator for the PTX subset in
// package ptx: it provides the "GPU" on which BARRACUDA's dynamic analysis
// runs. It models the CUDA thread hierarchy (grid → thread blocks → warps
// of 32 lockstep threads), branch divergence via a reconvergence (SIMT)
// stack driven by immediate post-dominators, the global/shared/local memory
// spaces, warp-serialized atomics, block barriers, and the `_log.*`
// instrumentation pseudo-instructions, which emit warp-level records into
// the logging queues exactly as the paper's GPU-side logging framework
// does (§4.2).
//
// Execution is sequentially consistent (the relaxed-memory behaviour that
// motivates fence scoping is modeled separately in package memmodel) and
// runs on a single goroutine so simulated racy programs never become Go
// data races; host-side detector threads run concurrently, consuming the
// queues.
package gpusim

import (
	"encoding/binary"
	"fmt"

	"barracuda/internal/logging"
)

// WarpSize is the default number of threads per warp. The paper notes
// that warp size is architecture-dependent and that portable code should
// not bake it in; LaunchConfig.WarpSize overrides it (2..32) to simulate
// smaller or larger warps and expose latent warp-size-dependent bugs —
// the future-work extension of §3.1.
const WarpSize = 32

// MaxBlockWarps bounds the warps of one block: CUDA's own 1024 threads ÷
// 32. A barrier release carries the arrived warps as one bit each of a
// 32-bit mask, so a narrow warp size cannot take a block past it.
const MaxBlockWarps = 32

// GlobalBase is the first address handed out for global-memory
// allocations; address 0 stays invalid so null dereferences fault.
const GlobalBase = 0x10000

// Dim3 is a 1-, 2- or 3-D extent; zero components are treated as 1.
type Dim3 struct {
	X, Y, Z int
}

// norm returns the dimension with zero components replaced by 1.
func (d Dim3) norm() Dim3 {
	if d.X == 0 {
		d.X = 1
	}
	if d.Y == 0 {
		d.Y = 1
	}
	if d.Z == 0 {
		d.Z = 1
	}
	return d
}

// Count returns the total number of elements in the extent.
func (d Dim3) Count() int {
	d = d.norm()
	return d.X * d.Y * d.Z
}

// D1 is shorthand for a 1-D extent.
func D1(x int) Dim3 { return Dim3{X: x} }

// Sink receives the warp-level records emitted by instrumented kernels.
// The record is only valid for the duration of the call; implementations
// must copy it (logging.Queue.Enqueue does).
type Sink interface {
	Emit(r *logging.Record)
}

// Device models one GPU: a flat global memory plus loaded modules.
type Device struct {
	mem      []byte
	next     uint64
	memLimit uint64
}

// NewDevice creates a device with the given global memory capacity in
// bytes (default 256 MiB when 0).
func NewDevice(memBytes int) *Device {
	if memBytes <= 0 {
		memBytes = 256 << 20
	}
	return &Device{
		next:     GlobalBase,
		memLimit: GlobalBase + uint64(memBytes),
	}
}

// Alloc reserves n bytes of global memory and returns the base address.
// Allocations are 256-byte aligned, mirroring cudaMalloc.
func (d *Device) Alloc(n int) (uint64, error) {
	if n < 0 {
		return 0, fmt.Errorf("gpusim: negative allocation %d", n)
	}
	base := (d.next + 255) &^ 255
	end := base + uint64(n)
	if end > d.memLimit {
		return 0, fmt.Errorf("gpusim: out of device memory (%d bytes requested)", n)
	}
	d.next = end
	d.ensure(end)
	return base, nil
}

// MustAlloc is Alloc that panics on failure; for tests and examples.
func (d *Device) MustAlloc(n int) uint64 {
	a, err := d.Alloc(n)
	if err != nil {
		panic(err)
	}
	return a
}

// ensure grows the backing store to cover addresses below end. Nothing
// writes past len(d.mem) and nothing shrinks it, so spare capacity is still
// zero and growing within it is a reslice. A new backing array takes a
// page of slack plus a quarter of what had to be copied into it: a job's
// large buffer and the small ones after it share one allocation, k Allocs
// copy the memory O(log k) times instead of k, and a device that is
// allocated once holds a page more than it asked for (slack is zeroed, so
// resident: a quarter of every first allocation read as +2.4 % peak RSS on
// suite26_default).
func (d *Device) ensure(end uint64) {
	need := int(end - GlobalBase)
	if need <= len(d.mem) {
		return
	}
	if need > cap(d.mem) {
		grown := make([]byte, len(d.mem), need+len(d.mem)/4+4096)
		copy(grown, d.mem)
		d.mem = grown
	}
	d.mem = d.mem[:need]
}

// span returns the n bytes at address addr of mem, a window of memory that
// starts at address lo, and false when any of them lies outside it. It is
// the simulator's one bounds rule, and it never adds to the address: the
// offset is checked against the window and the bytes past it against n, so
// an address near 2^64 is out of bounds instead of wrapping into a slice
// index.
func span(mem []byte, lo, addr, n uint64) ([]byte, bool) {
	off := addr - lo
	if addr < lo || off > uint64(len(mem)) || uint64(len(mem))-off < n {
		return nil, false
	}
	return mem[off : off+n], true
}

func (d *Device) checkRange(addr uint64, n int) error {
	if _, ok := span(d.mem, GlobalBase, addr, uint64(n)); !ok {
		return fmt.Errorf("gpusim: global access [%#x,+%d) out of bounds", addr, n)
	}
	return nil
}

// load reads n bytes little-endian from global memory.
func (d *Device) load(addr uint64, n int) (uint64, error) {
	if err := d.checkRange(addr, n); err != nil {
		return 0, err
	}
	off := addr - GlobalBase
	return loadLE(d.mem[off:], n), nil
}

// store writes n bytes little-endian to global memory.
func (d *Device) store(addr uint64, n int, v uint64) error {
	if err := d.checkRange(addr, n); err != nil {
		return err
	}
	off := addr - GlobalBase
	storeLE(d.mem[off:], n, v)
	return nil
}

// WriteU32 stores a 32-bit value at a global address (host-side API).
func (d *Device) WriteU32(addr uint64, v uint32) error { return d.store(addr, 4, uint64(v)) }

// ReadU32 loads a 32-bit value from a global address (host-side API).
func (d *Device) ReadU32(addr uint64) (uint32, error) {
	v, err := d.load(addr, 4)
	return uint32(v), err
}

// WriteU64 stores a 64-bit value at a global address.
func (d *Device) WriteU64(addr uint64, v uint64) error { return d.store(addr, 8, v) }

// ReadU64 loads a 64-bit value from a global address.
func (d *Device) ReadU64(addr uint64) (uint64, error) { return d.load(addr, 8) }

// Memset fills [addr, addr+n) with b.
func (d *Device) Memset(addr uint64, b byte, n int) error {
	if err := d.checkRange(addr, n); err != nil {
		return err
	}
	if n <= 0 { // nothing to fill, and the doubling below starts from buf[0]
		return nil
	}
	off := int(addr - GlobalBase)
	buf := d.mem[off : off+n]
	if b == 0 {
		clear(buf)
		return nil
	}
	buf[0] = b
	for i := 1; i < n; i *= 2 {
		copy(buf[i:], buf[:i])
	}
	return nil
}

// WriteBytes copies host bytes into global memory.
func (d *Device) WriteBytes(addr uint64, b []byte) error {
	if err := d.checkRange(addr, len(b)); err != nil {
		return err
	}
	copy(d.mem[addr-GlobalBase:], b)
	return nil
}

// ReadBytes copies n bytes of global memory to the host.
func (d *Device) ReadBytes(addr uint64, n int) ([]byte, error) {
	if err := d.checkRange(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, d.mem[addr-GlobalBase:])
	return out, nil
}

func loadLE(b []byte, n int) uint64 {
	switch n {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	return 0 // a typeless access covers no bytes
}

func storeLE(b []byte, n int, v uint64) {
	switch n {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	}
}
