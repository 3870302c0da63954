// Package wire is the streaming binary job protocol shared by the
// client↔daemon and coordinator↔worker links: a length-prefixed,
// CRC-protected frame layer over one hijacked HTTP connection, plus a
// varint/delta payload codec for launches, race reports and event
// records.
//
// The JSON submit/poll API serializes a whole PTX module on every
// submission and a whole report on every poll; this protocol streams
// instead. One connection carries, in order:
//
//	client                       server
//	  prelude (magic+version) →
//	                           ← prelude
//	  HELLO {api key}         →
//	                           ← WELCOME {limits} | REJECT {rate limit}
//	  MOD_BEGIN {len, hash}   →
//	                           ← MOD_STATE have        (warm: skip upload)
//	                           ← MOD_STATE need        (cold: send bytes)
//	  MOD_CHUNK* , MOD_END    →
//	                           ← MOD_STATE ready {hash}
//	  LAUNCH {seq=1, kind?}   →  (pipelined: no waiting between launches)
//	  LAUNCH {seq=2, kind?}   →
//	                           ← ACCEPT {seq, job id} | REJECT {seq, code, retry-after}
//	                           ← RACE {seq, race}     (as each race is found)
//	                           ← SUMMARY {seq, report, repair?} (terminal per launch)
//	  BYE                     →
//
// The fields marked ? are optional trailing fields: LAUNCH's job kind and
// SUMMARY's repair report close their payloads, are written only when set
// (a kind other than detect; a repair job's report) and read only when
// bytes remain. Every frame of a detect job is therefore the frame it was
// before the fields existed, Version stays 1, and a peer without a field
// finds trailing bytes and rejects the frame as malformed — it never
// misreads it.
//
// Every frame is `type(1) ‖ len(u32 LE) ‖ payload ‖ crc32(u32 LE)`,
// with the IEEE CRC computed over type+len+payload and len validated
// against MaxFrame before any allocation. Payloads use uvarint and
// zigzag-delta encoding (PC deltas between races of one report, address
// deltas between lanes of one record span, epoch-style running deltas
// between consecutive races), so a large race report costs a few bytes
// per race instead of a few hundred of JSON.
//
// Decode errors are typed — ErrBadMagic, ErrVersionMismatch,
// ErrFrameOversize, ErrBadCRC, ErrTruncated, ErrMalformed — and never
// panic: the decoder is fuzzed over truncations, corruptions and
// oversize length prefixes (see fuzz_test.go and testdata/fuzz).
package wire

import "errors"

// Protocol identity. The 5-byte prelude (magic ‖ version) opens the
// stream in both directions; a version bump is a wire break, detected
// before any frame is parsed.
const (
	Magic   = "BCWP" // BarraCuda Wire Protocol
	Version = 1
)

// Size limits. MaxFrame bounds a single frame payload and is validated
// against the length prefix before allocating; MaxModule bounds a whole
// chunked PTX upload (matching the JSON API's 16 MiB body cap);
// ChunkSize is the upload granularity clients use.
const (
	MaxFrame  = 4 << 20
	MaxModule = 16 << 20
	ChunkSize = 256 << 10
)

// Frame types, client → server.
const (
	FHello    byte = 0x01 // handshake: API key, client name
	FModBegin byte = 0x02 // open a module upload: total length + optional content hash
	FModChunk byte = 0x03 // raw module bytes
	FModEnd   byte = 0x04 // upload complete
	FLaunch   byte = 0x05 // one pipelined launch (a job submission minus the module)
	FBye      byte = 0x06 // orderly shutdown: server drains in-flight launches first
)

// Frame types, server → client.
const (
	FWelcome  byte = 0x11 // handshake accepted: negotiated limits
	FModState byte = 0x12 // module negotiation: need / have / ready
	FAccept   byte = 0x13 // launch admitted under the queue budget
	FRace     byte = 0x14 // one race, pushed at the moment of discovery
	FSummary  byte = 0x15 // terminal per-launch report (races, stats, shadow counters)
	FReject   byte = 0x16 // launch or handshake rejected: code + Retry-After hint
	FFatal    byte = 0x17 // connection-fatal error; the server closes after sending
)

// Module negotiation states carried by FModState.
const (
	ModNeed  byte = 0 // server wants the bytes: stream MOD_CHUNKs
	ModHave  byte = 1 // content hash matched a resident source: skip the upload
	ModReady byte = 2 // upload complete and hash-verified; module is current
)

// Typed decode errors. The frame reader and payload codec return
// exactly these (wrapped with context); they never panic and never
// allocate beyond the validated length prefix.
var (
	ErrBadMagic        = errors.New("wire: bad magic (not a barracuda stream)")
	ErrVersionMismatch = errors.New("wire: protocol version mismatch")
	ErrFrameOversize   = errors.New("wire: frame length exceeds MaxFrame")
	ErrBadCRC          = errors.New("wire: frame CRC mismatch")
	ErrTruncated       = errors.New("wire: truncated frame")
	ErrMalformed       = errors.New("wire: malformed payload")
)

// Stable reject/fatal codes, which the JSON API's ErrorJSON carries
// too, so both surfaces classify failures identically.
const (
	CodeInvalidArgument = "invalid_argument" // 400: malformed or failing validation
	CodeQueueFull       = "queue_full"       // 429: bounded queue at capacity; retryable
	CodeUnavailable     = "unavailable"      // 503: shutting down / transient; retryable
	CodeVersionMismatch = "version_mismatch"
)
