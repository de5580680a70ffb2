package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
)

// streamConn is a net.Conn whose reads come from a fixed byte stream and
// whose writes are discarded: enough for the reader side of a Conn.
type streamConn struct {
	net.Conn
	r *bytes.Reader
}

func (c streamConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c streamConn) Write(p []byte) (int, error) { return len(p), nil }
func (c streamConn) Close() error                { return nil }

func streamOf(b []byte) *Conn { return NewConn(streamConn{r: bytes.NewReader(b)}) }

// frame prefixes body with its 4-byte big-endian length.
func frame(body string) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(b, body...)
}

// Every way a first frame can fail the server's identity is rejected, with
// a reason naming the field, on both ends of the handshake; a matching
// hello is admitted and decoded.
func TestReadHelloVetting(t *testing.T) {
	want := NewHello(3, "0123456789abcdef0123")
	for _, tc := range []struct {
		name  string
		hello envelope
		field string // "" means admitted
	}{
		{"match", envelope{Type: TypeHello, Hello: want}, ""},
		{"protocol", envelope{Type: TypeHello, Hello: Hello{Proto: 2, SchemaVersion: 3, Fingerprint: want.Fingerprint}}, "protocol"},
		{"schema", envelope{Type: TypeHello, Hello: NewHello(4, want.Fingerprint)}, "schema version"},
		{"fingerprint", envelope{Type: TypeHello, Hello: NewHello(3, "fedcba9876543210")}, "fingerprint"},
		{"not hello", envelope{Type: "open", Hello: want}, "type"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			cerr := make(chan error, 1)
			go func() {
				c, err := Dial(ln.Addr().String(), tc.hello)
				if err == nil {
					c.Close()
				}
				cerr <- err
			}()
			nc, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			sc := NewConn(nc)
			defer sc.Close()
			var got envelope
			err = sc.ReadHello(want, &got)
			if tc.field == "" {
				if err != nil {
					t.Fatalf("matching hello rejected: %v", err)
				}
				if got != tc.hello {
					t.Errorf("admitted hello decoded as %+v, want %+v", got, tc.hello)
				}
				sc.Send(envelope{Type: TypeWelcome})
				if err := <-cerr; err != nil {
					t.Errorf("client handshake: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("server vetting error %v does not name %q", err, tc.field)
			}
			err = <-cerr
			if err == nil || !strings.Contains(err.Error(), "rejected") || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("client handshake error %v is not a rejection naming %q", err, tc.field)
			}
		})
	}
}

// A bare header claiming a huge frame costs the receiver at most the
// preallocation cap before the stream ends, not the claimed size.
func TestRecvBoundsPreallocation(t *testing.T) {
	c := streamOf(binary.BigEndian.AppendUint32(nil, 60<<20))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := c.Recv(&envelope{})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated 60 MiB frame decoded")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 2<<20 {
		t.Errorf("allocated %d bytes for a frame whose body never arrived", d)
	}
}

// Frames beyond the preallocation cap grow as their bytes arrive and
// decode intact; one cut short reports an unexpected EOF.
func TestRecvLargeFrame(t *testing.T) {
	body := `{"type":"result","reason":"` + strings.Repeat("x", 3*preallocBytes+17) + `"}`
	var got envelope
	if err := streamOf(frame(body)).Recv(&got); err != nil {
		t.Fatal(err)
	}
	if got.Type != "result" || len(got.Reason) != 3*preallocBytes+17 {
		t.Errorf("decoded type %q with a %d-byte reason", got.Type, len(got.Reason))
	}
	cut := frame(body)[:4+2*preallocBytes+5]
	if err := streamOf(cut).Recv(&got); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated large frame: %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

// A frame under the preallocation cap, such as a 4096-access trace chunk
// (~120 KB), is read with a single allocation of exactly its size.
func TestReadFrameSmallSingleAlloc(t *testing.T) {
	const n = 120 << 10
	data := frame(strings.Repeat(" ", n))
	r := bytes.NewReader(data)
	c := NewConn(streamConn{r: r})
	var b []byte
	allocs := testing.AllocsPerRun(10, func() {
		r.Reset(data)
		b, _ = c.readFrame()
	})
	if allocs != 1 || len(b) != n || cap(b) != n {
		t.Errorf("%v allocs for a %d-byte frame (len %d, cap %d), want 1 exact", allocs, n, len(b), cap(b))
	}
}

// FuzzRecv feeds arbitrary byte streams to the server side of a
// connection: the hello vetting, then the frame reader until the stream
// runs out. Every input must end in a decoded message or an error, never
// a panic or a hang.
func FuzzRecv(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		c := streamOf(stream)
		var hello envelope
		if err := c.ReadHello(NewHello(1, "fp"), &hello); err != nil {
			return
		}
		for {
			var m envelope
			if err := c.Recv(&m); err != nil {
				return
			}
		}
	})
}
