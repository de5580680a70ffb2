package blake2b

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// Known-answer tests from the RFC 7693 appendix and the official BLAKE2
// test vectors (unkeyed BLAKE2b-512).
func TestKnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		// RFC 7693 Appendix A: BLAKE2b-512("abc").
		{"abc", "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d17d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923"},
		// Empty input, from the official test vectors.
		{"", "786a02f742015903c6c6fd852552d272912f4740e15847618a86e217f71f5419d25e1031afee585313896444934eb04b903a685b1448b755d56f701afe9be2ce"},
	}
	for _, c := range cases {
		got := hex.EncodeToString(Sum([]byte(c.in), 64))
		if got != c.want {
			t.Errorf("BLAKE2b-512(%q) =\n%s want\n%s", c.in, got, c.want)
		}
	}
}

func TestMultiBlock(t *testing.T) {
	// Exercise the multi-block path: input longer than 128 bytes must not
	// equal the hash of its prefix and must be deterministic.
	long := bytes.Repeat([]byte("x"), 1000)
	a := Sum256(long)
	b := Sum256(long)
	if a != b {
		t.Error("hash not deterministic")
	}
	c := Sum256(long[:999])
	if a == c {
		t.Error("prefix collision")
	}
}

func TestExactBlockBoundaries(t *testing.T) {
	// Lengths around the 128-byte block size all hash distinctly.
	seen := map[[32]byte]int{}
	for _, n := range []int{127, 128, 129, 255, 256, 257} {
		d := Sum256(bytes.Repeat([]byte{0xab}, n))
		if prev, dup := seen[d]; dup {
			t.Errorf("lengths %d and %d collide", prev, n)
		}
		seen[d] = n
	}
}

func TestDigestSizes(t *testing.T) {
	for _, size := range []int{1, 8, 16, 32, 64} {
		if got := len(Sum([]byte("key"), size)); got != size {
			t.Errorf("size %d: got %d bytes", size, got)
		}
	}
	// Different sizes are different hash functions (parameter block).
	a := Sum([]byte("key"), 32)
	b := Sum([]byte("key"), 64)
	if bytes.Equal(a, b[:32]) {
		t.Error("digest size must alter the parameter block")
	}
}

func TestBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for size 0")
		}
	}()
	Sum(nil, 0)
}

func TestSum64Distribution(t *testing.T) {
	// Sanity: low bits of Sum64 over sequential keys look uniform enough
	// for table indexing (no bucket gets > 3x its fair share).
	const buckets = 64
	const n = 64 * 256
	var counts [buckets]int
	for i := uint64(0); i < n; i++ {
		counts[Sum64(i)%buckets]++
	}
	for b, c := range counts {
		if c > 3*n/buckets {
			t.Errorf("bucket %d has %d of %d keys", b, c, n)
		}
	}
}

func TestQuickNoTrivialCollisions(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return Sum64(a) != Sum64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSum64MatchesSum pins Sum64 to the RFC function it abbreviates: the
// hash of a key is the little-endian first word of the 8-byte BLAKE2b
// digest of the key's 8 little-endian bytes.
func TestSum64MatchesSum(t *testing.T) {
	f := func(k uint64) bool {
		var le [8]byte
		binary.LittleEndian.PutUint64(le[:], k)
		return Sum64(k) == binary.LittleEndian.Uint64(Sum(le[:], 8))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestGoldenDigests pins Sum64 and a multi-block Sum to fixed values, so a
// rewrite of the compression function that drifted from the RFC in both
// entry points at once still fails.
func TestGoldenDigests(t *testing.T) {
	for _, c := range []struct{ key, want uint64 }{
		{0, 0x18cc49ca5bea08ca},
		{1, 0xfd0529b07bbc0433},
		{0x9e3779b97f4a7c15, 0x21994c98a83f2a39},
		{^uint64(0), 0x2d0e9ddc2dfd74dd},
	} {
		if got := Sum64(c.key); got != c.want {
			t.Errorf("Sum64(%#x) = %#016x, want %#016x", c.key, got, c.want)
		}
	}
	// 300 bytes: two full blocks plus a partial final block.
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	const want = "d9cf5983dc6b34c0fa1f0226926855ad3eccd2bcdcd8f8053b9a80664d33b5af" +
		"cc32fd21c70ea14f4ef50ca97c3203c4d1803159f0e01bb6cb1d1c83db52b63c"
	if got := hex.EncodeToString(Sum(data, 64)); got != want {
		t.Errorf("BLAKE2b-512(0..299) =\n%s want\n%s", got, want)
	}
}
