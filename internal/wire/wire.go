// Package wire is the protocol layer shared by the translation service
// (internal/lvmd) and the sweep orchestrator (internal/experiments/orch):
// length-prefixed JSON framing, dialing, the hello handshake, and a server
// that owns every connection from Accept to teardown. Each protocol's
// message struct starts with the "type" tag and an embedded Hello.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

const (
	// ProtocolVersion gates the handshake against other frame layouts.
	ProtocolVersion = 1
	// MaxFrameBytes bounds a frame body. Run outputs are a few hundred KB
	// of JSON; anything near the limit is a corrupt or hostile peer.
	MaxFrameBytes = 64 << 20
	// preallocBytes caps the body buffer allocated before any body byte
	// arrives, so a bare header claiming MaxFrameBytes costs at most this.
	preallocBytes = 1 << 20
	// DialRetry tries dialAttempts times, dialBackoff apart.
	dialAttempts = 30
	dialBackoff  = 200 * time.Millisecond
)

// Type is a frame's "type" tag; each protocol adds its own vocabulary.
type Type string

const (
	TypeHello   Type = "hello"   // client → server: identity
	TypeWelcome Type = "welcome" // server → client: admitted
	TypeReject  Type = "reject"  // server → client: refused, with a reason
)

// Hello is the identity a client's hello frame carries. A server admits
// only a client whose Hello equals its own.
type Hello struct {
	Proto         int    `json:"proto,omitempty"`
	SchemaVersion int    `json:"schema_version,omitempty"`
	Fingerprint   string `json:"fingerprint,omitempty"`
}

// NewHello is the identity of a peer speaking ProtocolVersion with the
// given document schema version and config fingerprint.
func NewHello(schema int, fingerprint string) Hello {
	return Hello{Proto: ProtocolVersion, SchemaVersion: schema, Fingerprint: fingerprint}
}

// envelope holds the frame fields the handshake reads, under the JSON
// names every protocol's message struct uses.
type envelope struct {
	Type Type `json:"type"`
	Hello
	Reason string `json:"reason,omitempty"`
}

// vet names the field on which first frame e fails identity want, or
// returns "" if e admits its sender.
func (want Hello) vet(e envelope) string {
	switch {
	case e.Type != TypeHello:
		return fmt.Sprintf("first frame type %q, want %q", e.Type, TypeHello)
	case e.Proto != want.Proto:
		return fmt.Sprintf("protocol v%d, want v%d", e.Proto, want.Proto)
	case e.SchemaVersion != want.SchemaVersion:
		return fmt.Sprintf("schema version v%d, want v%d", e.SchemaVersion, want.SchemaVersion)
	case e.Fingerprint != want.Fingerprint:
		return fmt.Sprintf("config fingerprint %.12s does not match the server's (%.12s): the peer is configured for a different experiment", e.Fingerprint, want.Fingerprint)
	}
	return ""
}

// Conn frames messages over one connection. Each side runs a single
// reader loop; Send may be called from any goroutine.
type Conn struct {
	nc  net.Conn
	hdr [4]byte    // the reader loop's header buffer
	mu  sync.Mutex // serializes writes to nc
}

// NewConn wraps an established connection.
func NewConn(nc net.Conn) *Conn { return &Conn{nc: nc} }

// Dial connects to addr, sends hello and waits for the server's welcome; a
// reject is returned as an error carrying the server's reason.
func Dial(addr string, hello any) (*Conn, error) { return dial(addr, 1, hello) }

// DialRetry is Dial for a server that may still be starting up.
func DialRetry(addr string, hello any) (*Conn, error) { return dial(addr, dialAttempts, hello) }

func dial(addr string, attempts int, hello any) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	for i := 1; err != nil && i < attempts; i++ {
		time.Sleep(dialBackoff)
		nc, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	c := NewConn(nc)
	if err := c.Send(hello); err != nil {
		c.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	_, e, err := c.readEnvelope()
	switch {
	case err != nil:
		err = fmt.Errorf("handshake: %w", err)
	case e.Type == TypeReject:
		err = fmt.Errorf("handshake rejected: %s", e.Reason)
	case e.Type != TypeWelcome:
		err = fmt.Errorf("unexpected handshake reply %q", e.Type)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Send encodes m as one frame.
func (c *Conn) Send(m any) error {
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("wire: encoding frame: %w", err)
	}
	bufs := net.Buffers{binary.BigEndian.AppendUint32(nil, uint32(len(b))), b}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err = bufs.WriteTo(c.nc)
	return err
}

// Recv decodes the next frame into m.
func (c *Conn) Recv(m any) error {
	b, err := c.readFrame()
	if err != nil {
		return err
	}
	return decode(b, m)
}

// Close closes the connection, unblocking its reader.
func (c *Conn) Close() error { return c.nc.Close() }

// RemoteAddr is the peer's network address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// ReadHello reads a client's first frame into hello and vets it against
// the server's identity want. A mismatch is answered with a reject frame
// naming the field and returned as an error; the caller welcomes an
// admitted client with its own frame.
func (c *Conn) ReadHello(want Hello, hello any) error {
	b, e, err := c.readEnvelope()
	if err != nil {
		return err
	}
	if reason := want.vet(e); reason != "" {
		c.Send(envelope{Type: TypeReject, Reason: reason}) // best-effort
		return errors.New(reason)
	}
	return decode(b, hello)
}

// readEnvelope reads one frame and decodes its handshake fields.
func (c *Conn) readEnvelope() ([]byte, envelope, error) {
	var e envelope
	b, err := c.readFrame()
	if err == nil {
		err = decode(b, &e)
	}
	return b, e, err
}

// readFrame reads one frame body. A body of up to preallocBytes gets one
// exact-size allocation; a larger one grows, at most doubling, only as its
// bytes arrive.
func (c *Conn) readFrame() ([]byte, error) {
	if _, err := io.ReadFull(c.nc, c.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(c.hdr[:]))
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	b := make([]byte, min(n, preallocBytes))
	read := 0
	for {
		if _, err := io.ReadFull(c.nc, b[read:]); err != nil {
			if err == io.EOF && read > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if len(b) == n {
			return b, nil
		}
		read = len(b)
		grown := make([]byte, min(2*read, n))
		copy(grown, b)
		b = grown
	}
}

func decode(b []byte, m any) error {
	if err := json.Unmarshal(b, m); err != nil {
		return fmt.Errorf("wire: decoding frame: %w", err)
	}
	return nil
}

// Server runs one handler goroutine per accepted connection and owns each
// connection from Accept on, so Close ends every live connection, whether
// or not its peer has sent a byte. The zero Server is ready to use.
type Server struct {
	mu     sync.Mutex
	ln     net.Listener // guarded by mu
	conns  []*Conn      // guarded by mu; accept order
	closed bool         // guarded by mu
	wg     sync.WaitGroup
}

// Serve accepts connections on ln until Close, running handle on each in
// its own goroutine and closing the connection when handle returns. It
// returns nil after Close and the accept error otherwise.
func (s *Server) Serve(ln net.Listener, handle func(*Conn)) error {
	s.mu.Lock()
	s.ln = ln
	if s.closed {
		ln.Close() // Close already ran: accept nothing
	}
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		c := NewConn(nc)
		if !s.track(c) {
			c.Close() // accepted while Close was under way
			continue
		}
		go func() {
			defer s.wg.Done()
			handle(c)
			c.Close()
			s.mu.Lock()
			s.conns = slices.DeleteFunc(s.conns, func(x *Conn) bool { return x == c })
			s.mu.Unlock()
		}()
	}
}

// track adds a newly accepted connection and its handler to the live set,
// unless Close has begun.
func (s *Server) track(c *Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns = append(s.conns, c)
	s.wg.Add(1)
	return true
}

// Close stops accepting, closes every live connection in accept order, and
// returns once every handler has returned.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	live := slices.Clone(s.conns)
	s.mu.Unlock()
	for _, c := range live {
		c.Close()
	}
	s.wg.Wait()
}
