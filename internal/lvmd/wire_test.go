package lvmd

import (
	"io"
	"net"
	"testing"

	"lvm/internal/wire"
)

// The client's hello frame is pinned to the bytes the protocol has always
// sent: moving the framing and the hello identity into internal/wire must
// not change a byte a deployed daemon or client sees.
func TestHelloFrameBytes(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	go func() {
		wire.NewConn(a).Send(message{Type: wire.TypeHello, Hello: wire.NewHello(StreamSchemaVersion, "0123456789abcdef")})
		a.Close()
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	const want = "\x00\x00\x00N{\"type\":\"hello\",\"proto\":1,\"schema_version\":1,\"fingerprint\":\"0123456789abcdef\"}"
	if string(got) != want {
		t.Errorf("hello frame\n got %q\nwant %q", got, want)
	}
}
