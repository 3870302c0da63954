package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// knownErr reports whether err is one of the decoder's typed errors (or
// a clean EOF). Anything else escaping the decoder is a bug.
func knownErr(err error) bool {
	return err == nil || err == io.EOF ||
		errors.Is(err, ErrBadMagic) ||
		errors.Is(err, ErrVersionMismatch) ||
		errors.Is(err, ErrFrameOversize) ||
		errors.Is(err, ErrBadCRC) ||
		errors.Is(err, ErrTruncated) ||
		errors.Is(err, ErrMalformed)
}

// FuzzFrames feeds arbitrary bytes through the full receive path — the
// prelude check, the frame reader, and every payload decoder — and
// asserts three invariants: no panics, only typed errors, and no
// allocation beyond the validated length prefix (enforced structurally:
// ReadFrame checks the prefix against MaxFrame before make, and the
// count-prefixed payload decoders check claimed counts against the
// bytes actually present). The seed corpus in testdata/fuzz/FuzzFrames
// covers truncated frames, corrupted CRCs, oversize length prefixes and
// version-mismatch handshakes, and runs on every plain `go test` as a
// regression suite.
func FuzzFrames(f *testing.F) {
	// A well-formed stream: prelude + hello + launch.
	var good bytes.Buffer
	WritePrelude(&good)
	w := NewWriter(&good)
	w.WriteFrame(FHello, EncodeHello(Hello{APIKey: "k", Client: "fuzz"}))
	w.WriteFrame(FLaunch, EncodeLaunch(LaunchSpec{Seq: 1, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{64}}))
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		if _, err := ReadPrelude(r); !knownErr(err) {
			t.Fatalf("ReadPrelude: untyped error %v", err)
		} else if err != nil {
			// Still fuzz the frame layer on streams with a bad prelude.
			r = bytes.NewReader(data)
		}
		fr := NewReader(r)
		for i := 0; i < 64; i++ {
			frame, err := fr.ReadFrame()
			if !knownErr(err) {
				t.Fatalf("ReadFrame: untyped error %v", err)
			}
			if err != nil {
				break
			}
			// Run every payload decoder over the payload regardless of the
			// frame type byte: a hostile peer controls both.
			p := frame.Payload
			check := func(what string, e error) {
				if !knownErr(e) {
					t.Fatalf("%s: untyped error %v", what, e)
				}
			}
			_, e := DecodeHello(p)
			check("DecodeHello", e)
			_, e = DecodeWelcome(p)
			check("DecodeWelcome", e)
			_, e = DecodeModBegin(p)
			check("DecodeModBegin", e)
			_, e = DecodeModState(p)
			check("DecodeModState", e)
			_, e = DecodeLaunch(p)
			check("DecodeLaunch", e)
			_, e = DecodeAccept(p)
			check("DecodeAccept", e)
			_, e = DecodeReject(p)
			check("DecodeReject", e)
			_, e = DecodeFatal(p)
			check("DecodeFatal", e)
			var rd RaceDecoder
			_, e = DecodeRace(&rd, p)
			check("DecodeRace", e)
			_, e = DecodeSummary(p)
			check("DecodeSummary", e)
		}
	})
}
