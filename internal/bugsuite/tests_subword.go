package bugsuite

import "barracuda/internal/gpusim"

// SubwordTests are the mixed-width programs: sub-word and misaligned
// accesses, which none of the 66 paper programs (Tests) contains. The
// shadow keeps one cell per 4-byte word until a page or slab sees its
// first access that is not made of whole words, then refines it to the
// configured granularity; these programs pin that the refinement is
// exact — byte-disjoint accesses inside one word stay race-free, and
// metadata recorded at word granularity (summaries, inflated read maps,
// ownership claims) still convicts a later sub-word access. They are
// not part of Tests: the paper's suite is 66 programs, and the verdicts
// here assume byte granularity (the default).
func SubwordTests() []*Test {
	// Two one-thread blocks; block 1 takes the branch. STORE0/STORE1 are
	// spliced in.
	twoBlocks := func(block0, block1 string) string {
		return `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %ctaid.x;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra OTHER;
` + block0 + `
	ret;
OTHER:
` + block1 + `
	ret;
}`
	}
	// One block of three warps over a 512-byte buffer, all in one shadow
	// page: every thread stores its own word (three coalesced span
	// summaries, and with Ownership a block-wide claim); after a barrier
	// lane 0 of warps 0 and 1 read word 100 unordered (the second read
	// demotes the first's read summary and inflates the cell's read map);
	// then thread 69 (warp 2) stores the second byte of that word — the
	// page's first sub-word access — with SYNC spliced in before it.
	refineLive := func(sync string) string {
		return `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<4>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	mul.wide.u32 %rd2, %r1, 4;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r1;
	bar.sync 0;
	and.b32 %r2, %r1, 0xFFFFFFDF;
	setp.ne.u32 %p1, %r2, 0;
	@%p1 bra SKIP;
	ld.global.u32 %r3, [%rd1+400];
SKIP:
` + sync + `
	setp.ne.u32 %p3, %r1, 69;
	@%p3 bra DONE;
	st.global.u8 [%rd1+401], 7;
DONE:
	ret;
}`
	}
	g2, b1 := gpusim.D1(2), gpusim.D1(1)

	return []*Test{
		{
			Name:     "sw-adjacent-u8-free",
			Category: "subword",
			Desc:     "two blocks store adjacent bytes of one global word: byte-disjoint, so no race",
			Expect:   RaceFree,
			Kernel:   "k",
			Grid:     g2,
			Block:    b1,
			Bufs:     []int{4},
			PTX:      twoBlocks("\tst.global.u8 [%rd1], 1;", "\tst.global.u8 [%rd1+1], 2;"),
		},
		{
			Name:     "sw-same-u8-racy",
			Category: "subword",
			Desc:     "two blocks store the same global byte",
			Expect:   Racy,
			Kernel:   "k",
			Grid:     g2,
			Block:    b1,
			Bufs:     []int{4},
			PTX:      twoBlocks("\tst.global.u8 [%rd1+1], 1;", "\tst.global.u8 [%rd1+1], 2;"),
		},
		{
			Name:     "sw-u32-store-u8-load-racy",
			Category: "subword",
			Desc:     "block 0 stores a global word, block 1 loads its third byte without synchronization",
			Expect:   Racy,
			Kernel:   "k",
			Grid:     g2,
			Block:    b1,
			Bufs:     []int{4},
			PTX:      twoBlocks("\tst.global.u32 [%rd1], 7;", "\tld.global.u8 %r2, [%rd1+2];"),
		},
		{
			Name:     "sw-u32-store-u16-load-neighbour-free",
			Category: "subword",
			Desc:     "block 0 stores a global word, block 1 loads a halfword of the NEXT word: the page refines, the words stay apart",
			Expect:   RaceFree,
			Kernel:   "k",
			Grid:     g2,
			Block:    b1,
			Bufs:     []int{8},
			PTX:      twoBlocks("\tst.global.u32 [%rd1], 7;", "\tld.global.u16 %r2, [%rd1+6];"),
		},
		{
			Name:     "sw-shared-u32-store-u16-load-racy",
			Category: "subword",
			Desc:     "warp 0 stores a shared word twice over (two warps, same word), then warp 2 loads its upper halfword, no barrier: counts pin the word-cell weight and the refined byte cells",
			Expect:   Racy,
			Kernel:   "k",
			Grid:     gpusim.D1(1),
			Block:    gpusim.D1(96),
			Bufs:     []int{4},
			PTX: `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<4>;
	.shared .align 4 .b8 sh[16];
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	mov.u64 %rd2, sh;
	and.b32 %r3, %r1, 0xFFFFFFDF;
	setp.ne.u32 %p1, %r3, 0;
	@%p1 bra READ;
	st.shared.u32 [%rd2+4], %r1;
READ:
	setp.ne.u32 %p3, %r1, 64;
	@%p3 bra DONE;
	ld.shared.u16 %r2, [%rd2+6];
	st.global.u32 [%rd1], %r2;
DONE:
	ret;
}`,
		},
		{
			Name:     "sw-misaligned-u32-racy",
			Category: "subword",
			Desc:     "two blocks store misaligned words that overlap in two bytes",
			Expect:   Racy,
			Kernel:   "k",
			Grid:     g2,
			Block:    b1,
			Bufs:     []int{12},
			PTX:      twoBlocks("\tst.global.u32 [%rd1+2], 1;", "\tst.global.u32 [%rd1+4], 2;"),
		},
		{
			Name:     "sw-misaligned-u32-free",
			Category: "subword",
			Desc:     "a misaligned word store straddles two words; the other block stores the bytes on either side of it",
			Expect:   RaceFree,
			Kernel:   "k",
			Grid:     g2,
			Block:    b1,
			Bufs:     []int{12},
			PTX:      twoBlocks("\tst.global.u32 [%rd1+1], 1;", "\tst.global.u8 [%rd1], 2;\n\tst.global.u8 [%rd1+5], 3;"),
		},
		{
			Name:     "sw-refine-live-state-racy",
			Category: "subword",
			Desc:     "a byte store refines a page holding live span summaries, an inflated read map and a block ownership claim; it races with the other warp's earlier read of that word",
			Expect:   Racy,
			Kernel:   "k",
			Grid:     gpusim.D1(1),
			Block:    gpusim.D1(96),
			Bufs:     []int{512},
			PTX:      refineLive(""),
		},
		{
			Name:     "sw-refine-live-state-free",
			Category: "subword",
			Desc:     "the same refinement after a second barrier: the replicated read map must not convict the byte store",
			Expect:   RaceFree,
			Kernel:   "k",
			Grid:     gpusim.D1(1),
			Block:    gpusim.D1(96),
			Bufs:     []int{512},
			PTX:      refineLive("\tbar.sync 0;"),
		},
		{
			Name:     "sw-word-byte-page-stress-free",
			Category: "subword",
			Desc:     "even blocks sweep words, odd blocks sweep bytes of the same shadow page, all disjoint: the page refines under concurrent word traffic",
			Expect:   RaceFree,
			Kernel:   "k",
			Grid:     gpusim.D1(8),
			Block:    gpusim.D1(32),
			Bufs:     []int{8192},
			PTX: `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<12>;
	.reg .u64 %rd<8>;
	.reg .pred %p<4>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %ctaid.x;
	// Each block owns the 1 KiB slice out[ctaid*1024 ...).
	mul.wide.u32 %rd2, %r2, 1024;
	add.u64 %rd3, %rd1, %rd2;
	and.b32 %r3, %r2, 1;
	setp.ne.u32 %p1, %r3, 0;
	mov.u32 %r4, 0;
	@%p1 bra BYTES;
WORDS:
	// Sweep i: store word (i*32 + tid) of the slice, load the lane
	// neighbour's; 8 sweeps.
	shl.b32 %r5, %r4, 5;
	add.u32 %r5, %r5, %r1;
	mul.wide.u32 %rd4, %r5, 4;
	add.u64 %rd5, %rd3, %rd4;
	st.global.u32 [%rd5], %r5;
	xor.b32 %r7, %r5, 1;
	mul.wide.u32 %rd4, %r7, 4;
	add.u64 %rd5, %rd3, %rd4;
	ld.global.u32 %r6, [%rd5];
	add.u32 %r4, %r4, 1;
	setp.lt.u32 %p2, %r4, 8;
	@%p2 bra WORDS;
	ret;
BYTES:
	// Sweep i: store byte (i*32 + tid) of the slice, load the lane
	// neighbour's; 8 sweeps.
	shl.b32 %r5, %r4, 5;
	add.u32 %r5, %r5, %r1;
	cvt.u64.u32 %rd4, %r5;
	add.u64 %rd5, %rd3, %rd4;
	st.global.u8 [%rd5], %r5;
	xor.b32 %r7, %r5, 1;
	cvt.u64.u32 %rd4, %r7;
	add.u64 %rd5, %rd3, %rd4;
	ld.global.u8 %r6, [%rd5];
	add.u32 %r4, %r4, 1;
	setp.lt.u32 %p2, %r4, 8;
	@%p2 bra BYTES;
	ret;
}`,
		},
	}
}
