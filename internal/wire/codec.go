package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"barracuda/internal/core"
	"barracuda/internal/detector"
	"barracuda/internal/logging"
	"barracuda/internal/vc"
)

// ---- primitives -----------------------------------------------------
//
// All payloads are built from two primitives: unsigned varints
// (binary.AppendUvarint) and zigzag-folded signed varints for deltas.
// Decoding goes through dec, which turns every overrun or non-minimal
// encoding into ErrMalformed instead of panicking.

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b []byte, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// dec is a bounds-checked cursor over one frame payload.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, what)
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) zigzag() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("bytes length")
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *dec) string() string { return string(d.bytes()) }

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.b))
	}
	return nil
}

// ---- handshake ------------------------------------------------------

// Hello is the client handshake payload. The API key identifies the
// tenant for rate limiting and accounting; empty means anonymous.
type Hello struct {
	APIKey string
	Client string // free-form client identification, for logs
}

// EncodeHello renders a Hello payload.
func EncodeHello(h Hello) []byte {
	b := appendString(nil, h.APIKey)
	return appendString(b, h.Client)
}

// DecodeHello parses a Hello payload.
func DecodeHello(p []byte) (Hello, error) {
	d := &dec{b: p}
	h := Hello{APIKey: d.string(), Client: d.string()}
	return h, d.done()
}

// Welcome is the server handshake payload: the negotiated limits the
// client must respect on this connection.
type Welcome struct {
	MaxFrame  uint64
	MaxModule uint64
}

// EncodeWelcome renders a Welcome payload.
func EncodeWelcome(w Welcome) []byte {
	b := appendUvarint(nil, w.MaxFrame)
	return appendUvarint(b, w.MaxModule)
}

// DecodeWelcome parses a Welcome payload.
func DecodeWelcome(p []byte) (Welcome, error) {
	d := &dec{b: p}
	w := Welcome{MaxFrame: d.uvarint(), MaxModule: d.uvarint()}
	return w, d.done()
}

// ---- module upload --------------------------------------------------

// ModBegin opens a module upload. Hash is the SHA-256 of the module
// source when the client knows it (it always does for on-disk files);
// a declared hash lets the server short-circuit the upload entirely
// when the source is already resident. Empty Hash means "undeclared":
// the server computes it incrementally as chunks arrive.
type ModBegin struct {
	TotalLen uint64
	Hash     []byte // empty or 32 bytes
}

// EncodeModBegin renders a ModBegin payload.
func EncodeModBegin(m ModBegin) []byte {
	b := appendUvarint(nil, m.TotalLen)
	return appendBytes(b, m.Hash)
}

// DecodeModBegin parses a ModBegin payload.
func DecodeModBegin(p []byte) (ModBegin, error) {
	d := &dec{b: p}
	m := ModBegin{TotalLen: d.uvarint()}
	h := d.bytes()
	if len(h) > 0 {
		m.Hash = append([]byte(nil), h...)
	}
	if d.err == nil && len(m.Hash) != 0 && len(m.Hash) != 32 {
		d.fail("hash must be absent or 32 bytes")
	}
	return m, d.done()
}

// ModState is the server's module negotiation answer.
type ModState struct {
	State byte   // ModNeed | ModHave | ModReady
	Hash  []byte // the content hash the server resolved (ModHave/ModReady)
}

// EncodeModState renders a ModState payload.
func EncodeModState(m ModState) []byte {
	b := []byte{m.State}
	return appendBytes(b, m.Hash)
}

// DecodeModState parses a ModState payload.
func DecodeModState(p []byte) (ModState, error) {
	d := &dec{b: p}
	m := ModState{State: d.byte()}
	h := d.bytes()
	if len(h) > 0 {
		m.Hash = append([]byte(nil), h...)
	}
	if d.err == nil && m.State > ModReady {
		d.fail("unknown module state")
	}
	return m, d.done()
}

// ---- launches -------------------------------------------------------

// LaunchSpec is one pipelined launch: a job submission minus the module
// source, which traveled (once) in the upload phase. Seq is the
// client-chosen pipeline sequence number every response frame echoes.
type LaunchSpec struct {
	Seq       uint64
	Kernel    string
	Grid      int
	Block     int
	WarpSize  int
	TimeoutMS int64
	MaxInstrs uint64
	Buffers   []int
	// Kind is the job kind, an optional trailing field: "" and "detect"
	// are the default and are not written, "repair" is.
	Kind string
}

// EncodeLaunch renders a LaunchSpec payload.
func EncodeLaunch(l LaunchSpec) []byte {
	b := appendUvarint(nil, l.Seq)
	b = appendString(b, l.Kernel)
	b = appendUvarint(b, uint64(l.Grid))
	b = appendUvarint(b, uint64(l.Block))
	b = appendUvarint(b, uint64(l.WarpSize))
	b = appendUvarint(b, uint64(l.TimeoutMS))
	b = appendUvarint(b, l.MaxInstrs)
	b = appendUvarint(b, uint64(len(l.Buffers)))
	for _, n := range l.Buffers {
		b = appendUvarint(b, uint64(n))
	}
	if l.Kind != "" && l.Kind != "detect" {
		b = appendString(b, l.Kind)
	}
	return b
}

// DecodeLaunch parses a LaunchSpec payload.
func DecodeLaunch(p []byte) (LaunchSpec, error) {
	d := &dec{b: p}
	l := LaunchSpec{
		Seq:       d.uvarint(),
		Kernel:    d.string(),
		Grid:      int(d.uvarint()),
		Block:     int(d.uvarint()),
		WarpSize:  int(d.uvarint()),
		TimeoutMS: int64(d.uvarint()),
		MaxInstrs: d.uvarint(),
	}
	nb := d.uvarint()
	if nb > uint64(len(d.b)) { // each buffer size costs ≥1 byte
		d.fail("buffer count")
		return l, d.done()
	}
	for i := uint64(0); i < nb && d.err == nil; i++ {
		l.Buffers = append(l.Buffers, int(d.uvarint()))
	}
	if len(d.b) > 0 {
		l.Kind = d.string()
	}
	return l, d.done()
}

// Accept acknowledges an admitted launch.
type Accept struct {
	Seq   uint64
	JobID string
}

// EncodeAccept renders an Accept payload.
func EncodeAccept(a Accept) []byte {
	b := appendUvarint(nil, a.Seq)
	return appendString(b, a.JobID)
}

// DecodeAccept parses an Accept payload.
func DecodeAccept(p []byte) (Accept, error) {
	d := &dec{b: p}
	a := Accept{Seq: d.uvarint(), JobID: d.string()}
	return a, d.done()
}

// Reject refuses a launch (Seq > 0) or the whole handshake (Seq == 0),
// with the JSON API's machine-readable code and a Retry-After hint.
type Reject struct {
	Seq          uint64
	Code         string
	Msg          string
	RetryAfterMS uint64
}

// EncodeReject renders a Reject payload.
func EncodeReject(r Reject) []byte {
	b := appendUvarint(nil, r.Seq)
	b = appendString(b, r.Code)
	b = appendString(b, r.Msg)
	return appendUvarint(b, r.RetryAfterMS)
}

// DecodeReject parses a Reject payload.
func DecodeReject(p []byte) (Reject, error) {
	d := &dec{b: p}
	r := Reject{Seq: d.uvarint(), Code: d.string(), Msg: d.string(), RetryAfterMS: d.uvarint()}
	return r, d.done()
}

// Fatal is a connection-fatal error notice.
type Fatal struct {
	Code string
	Msg  string
}

// EncodeFatal renders a Fatal payload.
func EncodeFatal(f Fatal) []byte {
	b := appendString(nil, f.Code)
	return appendString(b, f.Msg)
}

// DecodeFatal parses a Fatal payload.
func DecodeFatal(p []byte) (Fatal, error) {
	d := &dec{b: p}
	f := Fatal{Code: d.string(), Msg: d.string()}
	return f, d.done()
}

// ---- races ----------------------------------------------------------
//
// Races are delta-encoded against the previous race in the same stream:
// within one report the PCs cluster tightly (the same kernel) and the
// addresses cluster by buffer, so consecutive deltas are one or two
// bytes where absolute values would be five to ten.

const (
	raceFPrevWrite = 1 << iota
	raceFPrevAtomic
	raceFCurWrite
	raceFCurAtomic
	raceFSameInstr
)

// RaceEncoder holds the running delta state of one race stream. The
// zero value starts a stream; the decoder mirrors it exactly.
type RaceEncoder struct {
	prevPC  uint32
	curPC   uint32
	addr    uint64
	prevTID int64
	curTID  int64
}

// Append delta-encodes one race onto b.
func (e *RaceEncoder) Append(b []byte, r core.Race) []byte {
	var flags byte
	if r.Prev.Write {
		flags |= raceFPrevWrite
	}
	if r.Prev.Atomic {
		flags |= raceFPrevAtomic
	}
	if r.Cur.Write {
		flags |= raceFCurWrite
	}
	if r.Cur.Atomic {
		flags |= raceFCurAtomic
	}
	if r.SameInstr {
		flags |= raceFSameInstr
	}
	b = append(b, byte(r.Kind), byte(r.Space), flags)
	b = appendZigzag(b, int64(r.Block))
	b = appendZigzag(b, int64(r.Prev.PC)-int64(e.prevPC))
	b = appendZigzag(b, int64(r.Cur.PC)-int64(e.curPC))
	b = appendZigzag(b, int64(r.Addr)-int64(e.addr))
	b = appendZigzag(b, int64(r.Prev.TID)-e.prevTID)
	b = appendZigzag(b, int64(r.Cur.TID)-e.curTID)
	b = appendUvarint(b, uint64(r.Count))
	e.prevPC, e.curPC = r.Prev.PC, r.Cur.PC
	e.addr = r.Addr
	e.prevTID, e.curTID = int64(r.Prev.TID), int64(r.Cur.TID)
	return b
}

// RaceDecoder mirrors RaceEncoder on the receive side.
type RaceDecoder struct {
	e RaceEncoder
}

func (rd *RaceDecoder) race(d *dec) core.Race {
	kind := d.byte()
	space := d.byte()
	flags := d.byte()
	r := core.Race{
		Kind:      core.RaceKind(kind),
		Space:     logging.SpaceID(space),
		Block:     int32(d.zigzag()),
		SameInstr: flags&raceFSameInstr != 0,
	}
	prevPC := int64(rd.e.prevPC) + d.zigzag()
	curPC := int64(rd.e.curPC) + d.zigzag()
	addr := int64(rd.e.addr) + d.zigzag()
	prevTID := rd.e.prevTID + d.zigzag()
	curTID := rd.e.curTID + d.zigzag()
	r.Prev = core.Access{TID: vc.TID(prevTID), PC: uint32(prevPC), Write: flags&raceFPrevWrite != 0, Atomic: flags&raceFPrevAtomic != 0}
	r.Cur = core.Access{TID: vc.TID(curTID), PC: uint32(curPC), Write: flags&raceFCurWrite != 0, Atomic: flags&raceFCurAtomic != 0}
	r.Addr = uint64(addr)
	r.Count = int(d.uvarint())
	rd.e.prevPC, rd.e.curPC = uint32(prevPC), uint32(curPC)
	rd.e.addr = uint64(addr)
	rd.e.prevTID, rd.e.curTID = prevTID, curTID
	return r
}

// RaceEvent is an incremental race frame: the race plus the launch it
// belongs to. Each launch's race stream has its own delta state on both
// sides, keyed by Seq.
type RaceEvent struct {
	Seq  uint64
	Race core.Race
}

// EncodeRace renders a RaceEvent payload using (and advancing) the
// launch's encoder state.
func EncodeRace(e *RaceEncoder, ev RaceEvent) []byte {
	b := appendUvarint(nil, ev.Seq)
	return e.Append(b, ev.Race)
}

// DecodeRace parses a RaceEvent payload using (and advancing) the
// launch's decoder state, which the caller looks up by the Seq returned
// in the event. PeekSeq extracts the Seq without consuming state.
func DecodeRace(rd *RaceDecoder, p []byte) (RaceEvent, error) {
	d := &dec{b: p}
	ev := RaceEvent{Seq: d.uvarint()}
	ev.Race = rd.race(d)
	return ev, d.done()
}

// PeekSeq reads the leading launch sequence number of a RaceEvent or
// Summary payload without consuming decoder state.
func PeekSeq(p []byte) (uint64, error) {
	d := &dec{b: p}
	s := d.uvarint()
	return s, d.err
}

// ---- summary --------------------------------------------------------

// Summary is the terminal frame of one launch: the full final report
// (the incremental race frames are a low-latency preview; the summary
// is authoritative, carrying final dynamic counts and ordering) plus
// the run's stats and shadow counters. Status/Error mirror the JSON
// JobInfo fields.
type Summary struct {
	Seq      uint64
	Status   string // done | failed | timeout
	Error    string
	Kernel   string
	CacheHit bool

	Races       []core.Race
	Divergences []core.BarrierDivergence

	RecordsSeen       uint64
	WarpInstrs        uint64
	SameValueFiltered uint64
	DetectUS          uint64 // detect wall time, microseconds
	QueueWaitUS       uint64
	TotalUS           uint64

	ShadowPeakResident uint64
	ShadowLiveEvicts   uint64
	PrecisionDegraded  bool

	// Repair is a repair job's report, an optional trailing field that
	// travels as JSON: a deep, cold struct that needs no varint codec.
	Repair *detector.RepairReport
}

// EncodeSummary renders a Summary payload. The race table uses a fresh
// delta stream (independent of the incremental frames, which may have
// raced ahead in a different discovery order).
func EncodeSummary(s Summary) []byte {
	b := appendUvarint(nil, s.Seq)
	b = appendString(b, s.Status)
	b = appendString(b, s.Error)
	b = appendString(b, s.Kernel)
	var flags byte
	if s.CacheHit {
		flags |= 1
	}
	if s.PrecisionDegraded {
		flags |= 2
	}
	b = append(b, flags)
	b = appendUvarint(b, uint64(len(s.Races)))
	var enc RaceEncoder
	for _, r := range s.Races {
		b = enc.Append(b, r)
	}
	b = appendUvarint(b, uint64(len(s.Divergences)))
	var prevPC int64
	for _, dv := range s.Divergences {
		b = appendUvarint(b, uint64(dv.Block))
		b = appendUvarint(b, uint64(dv.Warp))
		b = appendZigzag(b, int64(dv.PC)-prevPC)
		b = appendUvarint(b, uint64(dv.Mask))
		prevPC = int64(dv.PC)
	}
	b = appendUvarint(b, s.RecordsSeen)
	b = appendUvarint(b, s.WarpInstrs)
	b = appendUvarint(b, s.SameValueFiltered)
	b = appendUvarint(b, s.DetectUS)
	b = appendUvarint(b, s.QueueWaitUS)
	b = appendUvarint(b, s.TotalUS)
	b = appendUvarint(b, s.ShadowPeakResident)
	b = appendUvarint(b, s.ShadowLiveEvicts)
	if s.Repair != nil {
		rep, _ := json.Marshal(s.Repair) // strings and integers: cannot fail
		b = appendBytes(b, rep)
	}
	return b
}

// DecodeSummary parses a Summary payload.
func DecodeSummary(p []byte) (Summary, error) {
	d := &dec{b: p}
	s := Summary{
		Seq:    d.uvarint(),
		Status: d.string(),
		Error:  d.string(),
		Kernel: d.string(),
	}
	flags := d.byte()
	s.CacheHit = flags&1 != 0
	s.PrecisionDegraded = flags&2 != 0
	nr := d.uvarint()
	if nr > uint64(len(d.b)) { // each race costs ≥ 10 bytes
		d.fail("race count")
		return s, d.done()
	}
	var rd RaceDecoder
	for i := uint64(0); i < nr && d.err == nil; i++ {
		s.Races = append(s.Races, rd.race(d))
	}
	nd := d.uvarint()
	if nd > uint64(len(d.b)) {
		d.fail("divergence count")
		return s, d.done()
	}
	var prevPC int64
	for i := uint64(0); i < nd && d.err == nil; i++ {
		dv := core.BarrierDivergence{Block: int(d.uvarint()), Warp: int(d.uvarint())}
		pc := prevPC + d.zigzag()
		dv.PC = uint32(pc)
		prevPC = pc
		dv.Mask = uint32(d.uvarint())
		s.Divergences = append(s.Divergences, dv)
	}
	s.RecordsSeen = d.uvarint()
	s.WarpInstrs = d.uvarint()
	s.SameValueFiltered = d.uvarint()
	s.DetectUS = d.uvarint()
	s.QueueWaitUS = d.uvarint()
	s.TotalUS = d.uvarint()
	s.ShadowPeakResident = d.uvarint()
	s.ShadowLiveEvicts = d.uvarint()
	if len(d.b) > 0 {
		if rep := d.bytes(); d.err == nil && json.Unmarshal(rep, &s.Repair) != nil {
			d.fail("repair report")
		}
	}
	return s, d.done()
}

// Report reassembles a core.Report from a summary — the client-side
// inverse of the server's projection. CanonicalDigest over the result
// is byte-identical to the digest of the server-side report: the
// summary carries every field the digest covers (races with counts,
// divergences, RecordsSeen), and of the shadow census the peak and the
// live evictions behind PrecisionDegraded.
func (s Summary) Report() *core.Report {
	rep := &core.Report{
		RecordsSeen:       s.RecordsSeen,
		SameValueGag:      s.SameValueFiltered,
		PrecisionDegraded: s.PrecisionDegraded,
	}
	rep.Shadow.PeakResidentBytes = int64(s.ShadowPeakResident)
	rep.Shadow.LiveEvictions = s.ShadowLiveEvicts
	rep.Shadow.PrecisionDegraded = s.PrecisionDegraded
	rep.Races = append(rep.Races, s.Races...)
	rep.Divergences = append(rep.Divergences, s.Divergences...)
	return rep
}
