package server

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"barracuda/internal/core"
	"barracuda/internal/wire"
)

// handleStream upgrades the connection to the binary streaming protocol
// (see internal/wire): chunked module upload into the content-addressed
// source store, pipelined launches under the same scheduler budgets as
// the JSON API, and incremental race frames pushed as the detector
// finds them — no poll loop.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != wire.UpgradeHeader {
		WriteError(w, http.StatusUpgradeRequired, wire.CodeInvalidArgument,
			fmt.Sprintf("stream: set \"Upgrade: %s\"", wire.UpgradeHeader))
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		WriteError(w, http.StatusInternalServerError, wire.CodeUnavailable, "stream: connection not hijackable")
		return
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, wire.CodeUnavailable, "stream: hijack: "+err.Error())
		return
	}
	done, ok := s.trackStream(conn)
	if !ok {
		conn.Close()
		return
	}
	defer done()
	resp := fmt.Sprintf("HTTP/1.1 101 Switching Protocols\r\nUpgrade: %s\r\nConnection: Upgrade\r\n\r\n",
		wire.UpgradeHeader)
	if _, err := conn.Write([]byte(resp)); err != nil {
		conn.Close()
		return
	}
	st := &stream{
		sched: s.sched,
		conn:  conn,
		// The hijacked bufio.Reader may already hold client bytes that
		// raced ahead of the 101; reads must drain it first.
		src: io.MultiReader(bufferedReader{rw.Reader}, conn),
		fw:  wire.NewWriter(conn),
	}
	st.serve()
}

// bufferedReader drains what the hijacked bufio.Reader buffered and
// then reports EOF so the MultiReader falls through to the conn.
type bufferedReader struct{ br *bufio.Reader }

func (b bufferedReader) Read(p []byte) (int, error) {
	if b.br.Buffered() == 0 {
		return 0, io.EOF
	}
	return b.br.Read(p)
}

// stream is one upgraded connection's state machine.
type stream struct {
	sched *Scheduler
	conn  net.Conn

	src io.Reader
	fr  *wire.Reader

	wmu sync.Mutex // serializes frames from launch goroutines
	fw  *wire.Writer

	apiKey string

	// Current module (the source launches run against).
	module    string
	moduleSet bool

	// In-progress upload.
	upTotal  uint64
	upHash   []byte // declared hash, nil if undeclared
	upBuf    bytes.Buffer
	upSHA    hash.Hash
	upActive bool

	launches sync.WaitGroup

	jobs int64
	// Not yet reported to the tenant registry (account).
	races    atomic.Int64 // bumped from per-launch pump goroutines
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

func (st *stream) writeFrame(t byte, payload []byte) error {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	st.bytesOut.Add(int64(len(payload)) + 9)
	return st.fw.WriteFrame(t, payload)
}

// account reports the session's traffic and races since the last report
// to its tenant: after every SUMMARY, so a standing session — a
// coordinator's stays open for days — shows on /v1/metrics while it is
// open, and once more on the way out for the remainder.
func (st *stream) account() {
	t := st.sched.Tenants()
	t.ObserveBytes(st.apiKey, st.bytesIn.Swap(0), st.bytesOut.Swap(0))
	t.ObserveRaces(st.apiKey, st.races.Swap(0))
}

func (st *stream) fatal(code, msg string) {
	st.writeFrame(wire.FFatal, wire.EncodeFatal(wire.Fatal{Code: code, Msg: msg}))
}

func (st *stream) serve() {
	defer st.conn.Close()
	defer st.account()

	if err := wire.WritePrelude(st.conn); err != nil {
		return
	}
	if _, err := wire.ReadPrelude(st.src); err != nil {
		if errors.Is(err, wire.ErrVersionMismatch) {
			st.fatal(wire.CodeVersionMismatch, err.Error())
		}
		return
	}
	st.fr = wire.NewReader(st.src)
	f, err := st.fr.ReadFrame()
	if err != nil || f.Type != wire.FHello {
		st.fatal(wire.CodeInvalidArgument, "stream: expected HELLO")
		return
	}
	hello, err := wire.DecodeHello(f.Payload)
	if err != nil {
		st.fatal(wire.CodeInvalidArgument, err.Error())
		return
	}
	st.apiKey = hello.APIKey
	// Connection admission spends one token: a tenant hammering
	// reconnects is throttled the same way as one hammering launches.
	if ok, wait := st.sched.Tenants().Admit(st.apiKey); !ok {
		st.writeFrame(wire.FReject, wire.EncodeReject(wire.Reject{
			Code: wire.CodeQueueFull, Msg: "stream: tenant rate limit",
			RetryAfterMS: uint64(wait.Milliseconds()) + 1,
		}))
		return
	}
	if err := st.writeFrame(wire.FWelcome, wire.EncodeWelcome(wire.Welcome{
		MaxFrame: wire.MaxFrame, MaxModule: wire.MaxModule,
	})); err != nil {
		return
	}

	for {
		f, err := st.fr.ReadFrame()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				st.fatal(wire.CodeInvalidArgument, err.Error())
			}
			break
		}
		st.bytesIn.Add(int64(len(f.Payload)) + 9)
		switch f.Type {
		case wire.FModBegin:
			err = st.modBegin(f.Payload)
		case wire.FModChunk:
			err = st.modChunk(f.Payload)
		case wire.FModEnd:
			err = st.modEnd()
		case wire.FLaunch:
			err = st.launch(f.Payload)
		case wire.FBye:
			err = errStreamDone
		default:
			err = fmt.Errorf("unexpected frame %#x", f.Type)
		}
		if err == errStreamDone {
			break
		}
		if err != nil {
			st.fatal(wire.CodeInvalidArgument, err.Error())
			break
		}
	}
	// Drain in-flight launches so their summaries reach the client even
	// after BYE; a torn connection just makes their writes no-ops.
	st.launches.Wait()
}

var errStreamDone = errors.New("stream: bye")

func (st *stream) modBegin(p []byte) error {
	mb, err := wire.DecodeModBegin(p)
	if err != nil {
		return err
	}
	if mb.TotalLen > wire.MaxModule {
		return fmt.Errorf("module %d bytes exceeds limit %d", mb.TotalLen, wire.MaxModule)
	}
	if len(mb.Hash) == 32 {
		var h [32]byte
		copy(h[:], mb.Hash)
		if src, ok := st.sched.Srcs().Get(h); ok {
			// Warm hit: the declared content is resident; skip the upload.
			st.module, st.moduleSet = src, true
			st.upActive = false
			return st.writeFrame(wire.FModState, wire.EncodeModState(wire.ModState{State: wire.ModHave, Hash: mb.Hash}))
		}
	}
	st.upTotal = mb.TotalLen
	st.upHash = mb.Hash
	st.upBuf.Reset()
	st.upBuf.Grow(int(mb.TotalLen))
	st.upSHA = sha256.New()
	st.upActive = true
	return st.writeFrame(wire.FModState, wire.EncodeModState(wire.ModState{State: wire.ModNeed}))
}

func (st *stream) modChunk(p []byte) error {
	if !st.upActive {
		return errors.New("MOD_CHUNK outside an upload")
	}
	if uint64(st.upBuf.Len())+uint64(len(p)) > st.upTotal {
		return fmt.Errorf("upload overruns declared length %d", st.upTotal)
	}
	st.upBuf.Write(p)
	st.upSHA.Write(p)
	return nil
}

func (st *stream) modEnd() error {
	if !st.upActive {
		return errors.New("MOD_END outside an upload")
	}
	st.upActive = false
	if uint64(st.upBuf.Len()) != st.upTotal {
		return fmt.Errorf("upload ended at %d of %d declared bytes", st.upBuf.Len(), st.upTotal)
	}
	sum := st.upSHA.Sum(nil)
	if st.upHash != nil && !bytes.Equal(sum, st.upHash) {
		return errors.New("upload content hash does not match MOD_BEGIN declaration")
	}
	st.module, st.moduleSet = st.upBuf.String(), true
	st.sched.Srcs().Put(st.module)
	return st.writeFrame(wire.FModState, wire.EncodeModState(wire.ModState{State: wire.ModReady, Hash: sum}))
}

func (st *stream) reject(seq uint64, code, msg string, retryAfter time.Duration) error {
	return st.writeFrame(wire.FReject, wire.EncodeReject(wire.Reject{
		Seq: seq, Code: code, Msg: msg,
		RetryAfterMS: uint64(retryAfter.Milliseconds()),
	}))
}

func (st *stream) launch(p []byte) error {
	spec, err := wire.DecodeLaunch(p)
	if err != nil {
		return err
	}
	if st.upActive {
		// st.module is still the previous upload's: running it would answer
		// this launch with another module's report.
		return st.reject(spec.Seq, wire.CodeInvalidArgument, "LAUNCH during a module upload", 0)
	}
	if !st.moduleSet {
		return st.reject(spec.Seq, wire.CodeInvalidArgument, "LAUNCH before a module upload", 0)
	}
	if ok, wait := st.sched.Tenants().Admit(st.apiKey); !ok {
		return st.reject(spec.Seq, wire.CodeQueueFull, "tenant rate limit", wait+time.Millisecond)
	}
	req := launchRequest(st.module, spec)
	// Validate before sizing anything from the request: raceCh below is
	// allocated from MaxRaces. It is buffered to the race cap so the
	// observer can never block the detection worker: the detector fires
	// at most MaxRaces new static races per run.
	if err := req.Validate(st.sched.opts.MaxBufferBytes); err != nil {
		return st.reject(spec.Seq, wire.CodeInvalidArgument, err.Error(), 0)
	}
	raceCh := make(chan core.Race, req.Config.WithDefaults().MaxRaces)
	onRace := func(r core.Race) {
		select {
		case raceCh <- r:
		default: // cap exceeded would be a detector bug; never block
		}
	}
	job, err := st.sched.SubmitTenant(req, st.apiKey, onRace)
	switch {
	case errors.Is(err, ErrQueueFull):
		return st.reject(spec.Seq, wire.CodeQueueFull, err.Error(), time.Second)
	case err != nil:
		return st.reject(spec.Seq, wire.CodeInvalidArgument, err.Error(), 0)
	}
	st.jobs++
	st.sched.Tenants().ObserveJob(st.apiKey)
	if err := st.writeFrame(wire.FAccept, wire.EncodeAccept(wire.Accept{Seq: spec.Seq, JobID: job.ID})); err != nil {
		return err
	}
	st.launches.Add(1)
	go st.pump(spec.Seq, job, raceCh)
	return nil
}

// pump pushes one launch's incremental race frames and terminal
// summary. It runs per launch; frame writes serialize on the stream's
// write mutex, so pipelined launches interleave cleanly.
func (st *stream) pump(seq uint64, job *Job, raceCh <-chan core.Race) {
	defer st.launches.Done()
	var enc wire.RaceEncoder
	push := func(r core.Race) {
		st.races.Add(1)
		st.writeFrame(wire.FRace, wire.EncodeRace(&enc, wire.RaceEvent{Seq: seq, Race: r}))
	}
	for {
		select {
		case r := <-raceCh:
			push(r)
		case <-job.Done():
			for {
				select {
				case r := <-raceCh:
					push(r)
					continue
				default:
				}
				break
			}
			// The summary's race table is authoritative; the frames were a preview.
			sum := job.sum
			sum.Seq = seq
			p := wire.EncodeSummary(sum)
			if len(p) > wire.MaxFrame {
				// A repair's patched module is as large as its module. The
				// peer waits for a SUMMARY, so it gets one it can read.
				p = wire.EncodeSummary(wire.Summary{Seq: seq, Status: StatusFailed,
					Error: fmt.Sprintf("summary is %d bytes, frame limit is %d", len(p), wire.MaxFrame)})
			}
			st.writeFrame(wire.FSummary, p)
			st.account()
			return
		}
	}
}
