package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"barracuda/internal/core"
	"barracuda/internal/detector"
	"barracuda/internal/logging"
	"barracuda/internal/vc"
)

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{APIKey: "tenant-a", Client: "test/1"}
	out, err := DecodeHello(EncodeHello(in))
	if err != nil || out != in {
		t.Fatalf("got %+v, %v; want %+v", out, err, in)
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	in := Welcome{MaxFrame: MaxFrame, MaxModule: MaxModule}
	out, err := DecodeWelcome(EncodeWelcome(in))
	if err != nil || out != in {
		t.Fatalf("got %+v, %v; want %+v", out, err, in)
	}
}

func TestModBeginRoundTrip(t *testing.T) {
	hash := bytes.Repeat([]byte{7}, 32)
	in := ModBegin{TotalLen: 123456, Hash: hash}
	out, err := DecodeModBegin(EncodeModBegin(in))
	if err != nil || out.TotalLen != in.TotalLen || !bytes.Equal(out.Hash, in.Hash) {
		t.Fatalf("got %+v, %v; want %+v", out, err, in)
	}
	// Undeclared hash.
	out, err = DecodeModBegin(EncodeModBegin(ModBegin{TotalLen: 9}))
	if err != nil || out.Hash != nil {
		t.Fatalf("undeclared hash: got %+v, %v", out, err)
	}
	// Wrong-length hash is malformed.
	if _, err := DecodeModBegin(EncodeModBegin(ModBegin{Hash: []byte{1, 2, 3}})); err == nil {
		t.Fatal("3-byte hash accepted")
	}
}

func TestLaunchRoundTrip(t *testing.T) {
	in := LaunchSpec{
		Seq:       42,
		Kernel:    "k",
		Grid:      8,
		Block:     256,
		WarpSize:  32,
		TimeoutMS: 30000,
		MaxInstrs: 1 << 24,
		Buffers:   []int{4096, 0, 65536},
	}
	// Kind is an optional trailing field: the default, spelled either
	// way, leaves the bytes of a LAUNCH without the field (TestLaunchGoldenBytes's)
	// and decodes as ""; any other kind round-trips.
	const parent = launchGolden
	for _, kind := range []string{"", "detect", "repair"} {
		in.Kind = kind
		p := EncodeLaunch(in)
		want := in
		if kind != "repair" {
			want.Kind = ""
			if got := hex.EncodeToString(p); got != parent {
				t.Fatalf("kind %q moved the LAUNCH bytes:\n got %s\nwant %s", kind, got, parent)
			}
		}
		out, err := DecodeLaunch(p)
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("kind %q: got %+v\nwant %+v", kind, out, want)
		}
	}
}

// launchGolden is TestLaunchGoldenBytes's LAUNCH in protocol version 2:
// version 1's recorded bytes (commit 53f9fb5) with the detector
// configuration that closed them, the flag byte 7f and five varints, cut.
const launchGolden = "2a016b08800220b0ea018080800803802000808004"

// TestLaunchGoldenBytes pins the LAUNCH payload layout of this protocol
// version, and that a version-1 LAUNCH, configuration and all, is refused
// as malformed rather than misread (a v1 peer stops at the prelude first).
func TestLaunchGoldenBytes(t *testing.T) {
	const golden = launchGolden
	in := LaunchSpec{
		Seq:       42,
		Kernel:    "k",
		Grid:      8,
		Block:     256,
		WarpSize:  32,
		TimeoutMS: 30000,
		MaxInstrs: 1 << 24,
		Buffers:   []int{4096, 0, 65536},
	}
	if got := hex.EncodeToString(EncodeLaunch(in)); got != golden {
		t.Fatalf("LAUNCH bytes moved:\n got %s\nwant %s", got, golden)
	}
	raw, _ := hex.DecodeString(golden)
	out, err := DecodeLaunch(raw)
	if err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("decoding the golden bytes: got %+v, %v\nwant %+v", out, err, in)
	}
	v1, _ := hex.DecodeString(golden + "7f0480080480048080808008")
	if out, err := DecodeLaunch(v1); !errors.Is(err, ErrMalformed) {
		t.Fatalf("a version-1 LAUNCH decoded as %+v, %v; want ErrMalformed", out, err)
	}
}

func TestRejectRoundTrip(t *testing.T) {
	in := Reject{Seq: 3, Code: CodeQueueFull, Msg: "queue full", RetryAfterMS: 1000}
	out, err := DecodeReject(EncodeReject(in))
	if err != nil || out != in {
		t.Fatalf("got %+v, %v; want %+v", out, err, in)
	}
}

func randomRace(rng *rand.Rand) core.Race {
	spaces := []logging.SpaceID{logging.SpaceGlobal, logging.SpaceShared}
	r := core.Race{
		Kind:      core.RaceKind(rng.Intn(3)),
		Space:     spaces[rng.Intn(len(spaces))],
		Block:     int32(rng.Intn(16)) - 1,
		Addr:      uint64(rng.Intn(1 << 20)),
		SameInstr: rng.Intn(2) == 0,
		Count:     1 + rng.Intn(1000),
	}
	r.Prev = core.Access{TID: vc.TID(rng.Intn(4096)), PC: uint32(rng.Intn(2000)), Write: rng.Intn(2) == 0, Atomic: rng.Intn(4) == 0}
	r.Cur = core.Access{TID: vc.TID(rng.Intn(4096)), PC: uint32(rng.Intn(2000)), Write: rng.Intn(2) == 0, Atomic: rng.Intn(4) == 0}
	return r
}

// TestRaceStreamRoundTrip drives the per-launch delta state through a
// random race sequence and checks the decoder reproduces it exactly.
func TestRaceStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var enc RaceEncoder
	var dec RaceDecoder
	for i := 0; i < 500; i++ {
		in := RaceEvent{Seq: uint64(rng.Intn(4)), Race: randomRace(rng)}
		p := EncodeRace(&enc, in)
		seq, err := PeekSeq(p)
		if err != nil || seq != in.Seq {
			t.Fatalf("i=%d: PeekSeq = %d, %v; want %d", i, seq, err, in.Seq)
		}
		out, err := DecodeRace(&dec, p)
		if err != nil {
			t.Fatalf("i=%d: %v", i, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("i=%d: got %+v\nwant %+v", i, out, in)
		}
	}
}

// TestSummaryRoundTrip is the property test over the terminal frame:
// random reports encode → decode → deep-equal, and the reassembled
// core.Report digests identically to the original.
func TestSummaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	repairs := rand.New(rand.NewSource(3)) // its own stream: rng's draws are the parent's
	plain := sha256.New()
	for iter := 0; iter < 200; iter++ {
		in := Summary{
			Seq:                uint64(rng.Intn(100)),
			Status:             []string{"done", "failed", "timeout"}[rng.Intn(3)],
			Error:              []string{"", "step budget exhausted"}[rng.Intn(2)],
			Kernel:             "k",
			CacheHit:           rng.Intn(2) == 0,
			RecordsSeen:        uint64(rng.Intn(1 << 20)),
			WarpInstrs:         uint64(rng.Intn(1 << 20)),
			SameValueFiltered:  uint64(rng.Intn(100)),
			DetectUS:           uint64(rng.Intn(1 << 20)),
			QueueWaitUS:        uint64(rng.Intn(1 << 10)),
			TotalUS:            uint64(rng.Intn(1 << 21)),
			ShadowPeakResident: uint64(rng.Intn(1 << 24)),
			ShadowLiveEvicts:   uint64(rng.Intn(4)),
			PrecisionDegraded:  rng.Intn(8) == 0,
		}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			in.Races = append(in.Races, randomRace(rng))
		}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			in.Divergences = append(in.Divergences, core.BarrierDivergence{
				Block: rng.Intn(8), Warp: rng.Intn(8), PC: uint32(rng.Intn(1000)), Mask: rng.Uint32(),
			})
		}
		plain.Write(EncodeSummary(in))
		// Repair is an optional trailing field: absent on two summaries
		// in three, whose bytes are then the ones hashed above.
		if repairs.Intn(3) == 0 {
			in.Repair = &detector.RepairReport{
				Kernel:        "k",
				BaselineRaces: repairs.Intn(8),
				Verified:      repairs.Intn(3),
				PatchedPTX:    strings.Repeat("ld.global.u32 %r2, [%rd1];\n", repairs.Intn(64)),
				Candidates: []detector.RepairCandidate{{
					Description: "lost update", LineA: repairs.Intn(100), Space: "global",
					Patches: []detector.RepairPatch{{Kind: "atomicize", Verdict: detector.RepairVerdict{Verified: true}}},
				}},
			}
		}
		out, err := DecodeSummary(EncodeSummary(in))
		if err != nil {
			t.Fatalf("iter=%d: %v", iter, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("iter=%d: got %+v\nwant %+v", iter, out, in)
		}
		origRep := in.Report()
		if got, want := out.Report().CanonicalDigest(), origRep.CanonicalDigest(); got != want {
			t.Fatalf("iter=%d: digest mismatch after round trip", iter)
		}
	}
	// SHA-256 over the 200 report-less encodings, recorded when protocol
	// version 2 took the two producer-filter counters out of the frame.
	const parent = "613957d36a093809f902ad7aa1c3d09bebd75fe3839278a6c182865eeee11ba5"
	if got := hex.EncodeToString(plain.Sum(nil)); got != parent {
		t.Fatalf("a SUMMARY without a repair report moved: sha256 %s, want %s", got, parent)
	}
}

// TestDeltaCompression sanity-checks the point of the codec: a
// clustered race table must encode well below its JSON-ish footprint.
func TestDeltaCompression(t *testing.T) {
	var races []core.Race
	for i := 0; i < 100; i++ {
		races = append(races, core.Race{
			Kind:  core.InterBlock,
			Space: logging.SpaceGlobal,
			Block: -1,
			Addr:  0x10000 + uint64(i)*4,
			Prev:  core.Access{TID: vc.TID(i), PC: 120, Write: true},
			Cur:   core.Access{TID: vc.TID(i + 1), PC: 124, Write: true},
			Count: 2,
		})
	}
	p := EncodeSummary(Summary{Status: "done", Kernel: "k", Races: races})
	if perRace := len(p) / len(races); perRace > 16 {
		t.Fatalf("delta encoding averages %d bytes/race, want ≤ 16", perRace)
	}
}

func TestDecodeMalformedPayloads(t *testing.T) {
	// None of the payload decoders may panic or over-allocate on junk.
	junk := [][]byte{
		nil,
		{0xFF},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, // overlong varint
		bytes.Repeat([]byte{0x80}, 32),
		{0x05, 'a', 'b'}, // string length overrun
	}
	for i, p := range junk {
		if _, err := DecodeHello(p); err == nil && len(p) != 0 {
			t.Errorf("junk %d: DecodeHello accepted", i)
		}
		if _, err := DecodeLaunch(p); err == nil {
			t.Errorf("junk %d: DecodeLaunch accepted", i)
		}
		if _, err := DecodeSummary(p); err == nil {
			t.Errorf("junk %d: DecodeSummary accepted", i)
		}
		var rd RaceDecoder
		if _, err := DecodeRace(&rd, p); err == nil {
			t.Errorf("junk %d: DecodeRace accepted", i)
		}
	}
	hugeSum := appendUvarint(nil, 1)        // seq
	hugeSum = appendString(hugeSum, "ok")   // status
	hugeSum = appendString(hugeSum, "")     // error
	hugeSum = appendString(hugeSum, "k")    // kernel
	hugeSum = append(hugeSum, 0)            // flags
	hugeSum = appendUvarint(hugeSum, 1<<40) // race count
	if _, err := DecodeSummary(hugeSum); err == nil {
		t.Error("huge race count accepted")
	}
	// The optional trailing fields end the payload: nothing may follow
	// them, and their length prefixes are checked like every other.
	launch := EncodeLaunch(LaunchSpec{Seq: 1, Kernel: "k", Kind: "repair"})
	if _, err := DecodeLaunch(append(launch, 0)); !errors.Is(err, ErrMalformed) {
		t.Errorf("junk after kind: %v, want ErrMalformed", err)
	}
	sum := EncodeSummary(Summary{Seq: 1, Status: "done", Kernel: "k"})
	if _, err := DecodeSummary(appendUvarint(sum, 9)); !errors.Is(err, ErrMalformed) {
		t.Errorf("repair length past the end: %v, want ErrMalformed", err)
	}
	if _, err := DecodeSummary(appendBytes(sum, []byte("{not json"))); !errors.Is(err, ErrMalformed) {
		t.Errorf("repair report that is not JSON: %v, want ErrMalformed", err)
	}
}
