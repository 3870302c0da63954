package wire

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"time"
)

// UpgradeHeader is the HTTP Upgrade token the /v1/stream endpoint
// switches protocols on.
const UpgradeHeader = "barracuda-stream/1"

// StreamPath is the HTTP endpoint that upgrades to this protocol.
const StreamPath = "/v1/stream"

// ErrUpgradeRefused marks a server that answered the upgrade request
// with something other than 101: not a daemon, or not its /v1/stream.
var ErrUpgradeRefused = errors.New("wire: server refused upgrade")

// RejectError is a server rejection surfaced as an error: the
// handshake was refused (rate limit) or a launch could not be encoded.
type RejectError struct {
	Reject Reject
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("wire: rejected (%s): %s", e.Reject.Code, e.Reject.Msg)
}

// FatalError is a connection-fatal server notice surfaced as an error.
type FatalError struct {
	Fatal Fatal
}

func (e *FatalError) Error() string {
	return fmt.Sprintf("wire: fatal (%s): %s", e.Fatal.Code, e.Fatal.Msg)
}

// Event is one server frame delivered by Client.Next, discriminated by
// Type (FAccept, FReject, FRace, FSummary).
type Event struct {
	Type    byte
	Accept  Accept
	Reject  Reject
	Race    RaceEvent
	Summary Summary
}

// Client speaks the streaming protocol against a daemon. Not safe for
// concurrent use: the intended shape is "upload, fire launches, drain
// events", all from one goroutine (the protocol itself is pipelined, so
// single-threaded use loses nothing).
type Client struct {
	conn    net.Conn
	w       *Writer
	r       *Reader
	welcome Welcome
	racedec map[uint64]*RaceDecoder
}

// Dial connects to a daemon's base URL (http://host:port), upgrades to
// the streaming protocol and completes the handshake. A rate-limited
// handshake returns *RejectError carrying the Retry-After hint.
func Dial(baseURL, apiKey string, timeout time.Duration) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("wire: dial: %w", err)
	}
	host := u.Host
	if host == "" {
		host = baseURL
	}
	conn, err := net.DialTimeout("tcp", host, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial: %w", err)
	}
	c, err := Handshake(conn, host, apiKey)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Handshake runs the HTTP upgrade and protocol handshake over an
// established connection (exposed separately so tests and byte-counting
// wrappers can supply their own conn).
func Handshake(conn net.Conn, host, apiKey string) (*Client, error) {
	req := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		StreamPath, host, UpgradeHeader)
	if _, err := conn.Write([]byte(req)); err != nil {
		return nil, fmt.Errorf("wire: upgrade request: %w", err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, fmt.Errorf("wire: upgrade response: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		resp.Body.Close()
		return nil, fmt.Errorf("%w: %s", ErrUpgradeRefused, resp.Status)
	}
	// The response has no body; the stream begins immediately after the
	// header block, and br may have buffered the first prelude bytes.
	c := &Client{conn: conn, w: NewWriter(conn), r: &Reader{br: br}, racedec: map[uint64]*RaceDecoder{}}
	if err := WritePrelude(conn); err != nil {
		return nil, err
	}
	if _, err := ReadPrelude(br); err != nil {
		return nil, err
	}
	if err := c.w.WriteFrame(FHello, EncodeHello(Hello{APIKey: apiKey, Client: "barracuda-go"})); err != nil {
		return nil, err
	}
	f, err := c.r.ReadFrame()
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case FWelcome:
		w, err := DecodeWelcome(f.Payload)
		if err != nil {
			return nil, err
		}
		c.welcome = w
		return c, nil
	case FReject:
		rej, err := DecodeReject(f.Payload)
		if err != nil {
			return nil, err
		}
		return nil, &RejectError{Reject: rej}
	case FFatal:
		ft, err := DecodeFatal(f.Payload)
		if err != nil {
			return nil, err
		}
		return nil, &FatalError{Fatal: ft}
	default:
		return nil, fmt.Errorf("%w: unexpected handshake frame %#x", ErrMalformed, f.Type)
	}
}

// Welcome returns the limits the server granted at handshake.
func (c *Client) Welcome() Welcome { return c.welcome }

// UploadModule makes src the connection's current module, skipping the
// byte transfer when the server already holds the content (warm hit).
// Returns the content hash and whether the upload was skipped.
func (c *Client) UploadModule(src []byte) (hash [32]byte, warm bool, err error) {
	if len(src) > MaxModule {
		return hash, false, fmt.Errorf("wire: module %d bytes exceeds MaxModule %d", len(src), MaxModule)
	}
	hash = sha256.Sum256(src)
	if err := c.w.WriteFrame(FModBegin, EncodeModBegin(ModBegin{TotalLen: uint64(len(src)), Hash: hash[:]})); err != nil {
		return hash, false, err
	}
	st, err := c.readModState()
	if err != nil {
		return hash, false, err
	}
	if st.State == ModHave {
		return hash, true, nil
	}
	if st.State != ModNeed {
		return hash, false, fmt.Errorf("%w: unexpected module state %d", ErrMalformed, st.State)
	}
	for off := 0; off < len(src); off += ChunkSize {
		end := off + ChunkSize
		if end > len(src) {
			end = len(src)
		}
		if err := c.w.WriteFrame(FModChunk, src[off:end]); err != nil {
			return hash, false, err
		}
	}
	if err := c.w.WriteFrame(FModEnd, nil); err != nil {
		return hash, false, err
	}
	st, err = c.readModState()
	if err != nil {
		return hash, false, err
	}
	if st.State != ModReady {
		return hash, false, fmt.Errorf("%w: upload not acknowledged (state %d)", ErrMalformed, st.State)
	}
	return hash, false, nil
}

func (c *Client) readModState() (ModState, error) {
	f, err := c.r.ReadFrame()
	if err != nil {
		return ModState{}, err
	}
	switch f.Type {
	case FModState:
		return DecodeModState(f.Payload)
	case FReject:
		rej, err := DecodeReject(f.Payload)
		if err != nil {
			return ModState{}, err
		}
		return ModState{}, &RejectError{Reject: rej}
	case FFatal:
		ft, err := DecodeFatal(f.Payload)
		if err != nil {
			return ModState{}, err
		}
		return ModState{}, &FatalError{Fatal: ft}
	default:
		return ModState{}, fmt.Errorf("%w: unexpected frame %#x during upload", ErrMalformed, f.Type)
	}
}

// Launch submits one pipelined launch against the current module. It
// does not wait for a response; pair with Next.
func (c *Client) Launch(spec LaunchSpec) error {
	return c.w.WriteFrame(FLaunch, EncodeLaunch(spec))
}

// Next returns the next server event. Race frames are decoded against
// the per-launch delta state Next maintains internally. A server FFatal
// is surfaced as *FatalError.
func (c *Client) Next() (Event, error) {
	f, err := c.r.ReadFrame()
	if err != nil {
		return Event{}, err
	}
	switch f.Type {
	case FAccept:
		a, err := DecodeAccept(f.Payload)
		return Event{Type: FAccept, Accept: a}, err
	case FReject:
		rej, err := DecodeReject(f.Payload)
		return Event{Type: FReject, Reject: rej}, err
	case FRace:
		seq, err := PeekSeq(f.Payload)
		if err != nil {
			return Event{}, err
		}
		rd := c.racedec[seq]
		if rd == nil {
			rd = &RaceDecoder{}
			c.racedec[seq] = rd
		}
		ev, err := DecodeRace(rd, f.Payload)
		return Event{Type: FRace, Race: ev}, err
	case FSummary:
		s, err := DecodeSummary(f.Payload)
		if err == nil {
			delete(c.racedec, s.Seq)
		}
		return Event{Type: FSummary, Summary: s}, err
	case FFatal:
		ft, err := DecodeFatal(f.Payload)
		if err != nil {
			return Event{}, err
		}
		return Event{}, &FatalError{Fatal: ft}
	default:
		return Event{}, fmt.Errorf("%w: unexpected server frame %#x", ErrMalformed, f.Type)
	}
}

// Bye sends the orderly-shutdown frame. The server finishes in-flight
// launches (their events still arrive via Next) and then closes.
func (c *Client) Bye() error { return c.w.WriteFrame(FBye, nil) }

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }
