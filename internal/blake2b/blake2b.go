// Package blake2b implements the BLAKE2b hash function of RFC 7693,
// unkeyed, with selectable digest size up to 64 bytes.
//
// The paper's §7.3 collision-rate baseline is "a hash table that has a load
// factor of 0.6 and uses the state-of-the-art hash function Blake2"; the
// repository is restricted to the standard library, so the algorithm is
// implemented here from the RFC. ECPT and Revelator index their tables with
// it too. Only the pieces those tables need are provided: one-shot hashing
// and a convenience Sum64 for table indexing.
package blake2b

import (
	"encoding/binary"
	"math/bits"
)

// iv is the BLAKE2b initialization vector (RFC 7693 §2.6).
var iv = [8]uint64{
	0x6a09e667f3bcc908, 0xbb67ae8584caa73b,
	0x3c6ef372fe94f82b, 0xa54ff53a5f1d36f1,
	0x510e527fade682d1, 0x9b05688c2b3e6c1f,
	0x1f83d9abfb41bd6b, 0x5be0cd19137e2179,
}

// sigma is the message schedule (RFC 7693 §2.7).
var sigma = [12][16]uint8{
	{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	{14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
	{11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
	{7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
	{9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
	{2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
	{12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
	{13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
	{6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
	{10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0},
	{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	{14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
}

// g is the BLAKE2b mixing function (RFC 7693 §3.1). It takes and returns
// the four words it mixes by value, so compress keeps its whole working
// vector in locals (registers) and g inlines into it.
func g(a, b, c, d, x, y uint64) (uint64, uint64, uint64, uint64) {
	a += b + x
	d = bits.RotateLeft64(d^a, -32)
	c += d
	b = bits.RotateLeft64(b^c, -24)
	a += b + y
	d = bits.RotateLeft64(d^a, -16)
	c += d
	b = bits.RotateLeft64(b^c, -63)
	return a, b, c, d
}

// compress applies the F compression function to one block of 16
// little-endian message words.
func compress(h *[8]uint64, m *[16]uint64, t uint64, final bool) {
	v0, v1, v2, v3, v4, v5, v6, v7 := h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]
	v8, v9, v10, v11, v12, v13, v14, v15 := iv[0], iv[1], iv[2], iv[3], iv[4], iv[5], iv[6], iv[7]
	v12 ^= t // low word of the offset counter; high word is 0 for our sizes
	if final {
		v14 = ^v14
	}
	for r := range sigma {
		s := &sigma[r]
		v0, v4, v8, v12 = g(v0, v4, v8, v12, m[s[0]], m[s[1]])
		v1, v5, v9, v13 = g(v1, v5, v9, v13, m[s[2]], m[s[3]])
		v2, v6, v10, v14 = g(v2, v6, v10, v14, m[s[4]], m[s[5]])
		v3, v7, v11, v15 = g(v3, v7, v11, v15, m[s[6]], m[s[7]])
		v0, v5, v10, v15 = g(v0, v5, v10, v15, m[s[8]], m[s[9]])
		v1, v6, v11, v12 = g(v1, v6, v11, v12, m[s[10]], m[s[11]])
		v2, v7, v8, v13 = g(v2, v7, v8, v13, m[s[12]], m[s[13]])
		v3, v4, v9, v14 = g(v3, v4, v9, v14, m[s[14]], m[s[15]])
	}
	h[0] ^= v0 ^ v8
	h[1] ^= v1 ^ v9
	h[2] ^= v2 ^ v10
	h[3] ^= v3 ^ v11
	h[4] ^= v4 ^ v12
	h[5] ^= v5 ^ v13
	h[6] ^= v6 ^ v14
	h[7] ^= v7 ^ v15
}

// decode loads one 128-byte block as 16 little-endian message words.
func decode(m *[16]uint64, block []byte) {
	for i := range m {
		m[i] = binary.LittleEndian.Uint64(block[i*8:])
	}
}

// Sum computes the unkeyed BLAKE2b digest of data with the given output
// size in bytes (1..64).
func Sum(data []byte, size int) []byte {
	if size < 1 || size > 64 {
		panic("blake2b: digest size out of range")
	}
	var h [8]uint64
	copy(h[:], iv[:])
	// Parameter block: digest length, fanout=1, depth=1.
	h[0] ^= 0x01010000 ^ uint64(size)

	var m [16]uint64
	var t uint64
	for len(data) > 128 {
		decode(&m, data[:128])
		t += 128
		compress(&h, &m, t, false)
		data = data[128:]
	}
	// Final (possibly partial, possibly empty) block, zero-padded.
	var block [128]byte
	copy(block[:], data)
	decode(&m, block[:])
	t += uint64(len(data))
	compress(&h, &m, t, true)

	out := make([]byte, 64)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], h[i])
	}
	return out[:size]
}

// Sum256 computes the 32-byte BLAKE2b-256 digest.
func Sum256(data []byte) [32]byte {
	var d [32]byte
	copy(d[:], Sum(data, 32))
	return d
}

// Sum64 hashes a 64-bit key and returns the first 8 digest bytes as a
// uint64, the form the hashed tables use for slot selection.
// It runs the single-block path inline — same parameter block and final
// compression as Sum(le64(key), 8) — with the key as the only nonzero
// message word, so hot-path table indexing never allocates a digest buffer
// or decodes a byte block.
func Sum64(key uint64) uint64 {
	h := iv
	h[0] ^= 0x01010000 ^ 8
	m := [16]uint64{key}
	compress(&h, &m, 8, true)
	return h[0]
}
