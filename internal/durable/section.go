package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// AppendSection appends one framed section to dst: u32 name length,
// name, u32 payload length, payload, u32 CRC-32 (IEEE) of the payload,
// all little-endian. A file of sections torn anywhere decodes up to the
// last intact one and then fails, never yields wrong data.
func AppendSection(dst []byte, name string, payload []byte) []byte {
	dst, start := BeginSection(dst, name)
	return EndSection(append(dst, payload...), start)
}

// BeginSection appends the head of a section whose payload the caller
// then appends in place, and returns where that payload starts.
// EndSection, given that offset, completes the section.
func BeginSection(dst []byte, name string) ([]byte, int) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
	dst = append(dst, name...)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	return dst, len(dst)
}

// EndSection completes the section whose payload runs from start to the
// end of dst: it fills in the payload length and appends the CRC.
func EndSection(dst []byte, start int) []byte {
	payload := dst[start:]
	binary.LittleEndian.PutUint32(dst[start-4:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// NextSection decodes the section at the start of data and returns its
// name, its payload (aliasing data) and the n bytes it occupies, so the
// next section starts at data[n:]. Arbitrary input returns an error,
// never a panic: every length is checked against the bytes that remain
// before it is used, and the payload against its CRC. Callers bound the
// name themselves (an empty or absurdly long one is their corruption
// signal).
func NextSection(data []byte) (name string, payload []byte, n int, err error) {
	nameLen, rest, ok := cutUint32(data)
	if !ok {
		return "", nil, 0, fmt.Errorf("torn section header")
	}
	if uint64(nameLen) > uint64(len(rest)) {
		return "", nil, 0, fmt.Errorf("section name length %d exceeds remaining %d", nameLen, len(rest))
	}
	name, rest = string(rest[:nameLen]), rest[nameLen:]
	payloadLen, rest, ok := cutUint32(rest)
	if !ok {
		return "", nil, 0, fmt.Errorf("section %.64q: torn payload length", name)
	}
	if uint64(payloadLen) > uint64(len(rest)) {
		return "", nil, 0, fmt.Errorf("section %.64q: payload length %d exceeds remaining %d", name, payloadLen, len(rest))
	}
	payload, rest = rest[:payloadLen], rest[payloadLen:]
	want, rest, ok := cutUint32(rest)
	if !ok {
		return "", nil, 0, fmt.Errorf("section %.64q: torn checksum", name)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return "", nil, 0, fmt.Errorf("section %.64q: checksum mismatch (got %08x want %08x)", name, got, want)
	}
	return name, payload, len(data) - len(rest), nil
}

// cutUint32 splits a little-endian u32 off the front of b.
func cutUint32(b []byte) (v uint32, rest []byte, ok bool) {
	if len(b) < 4 {
		return 0, b, false
	}
	return binary.LittleEndian.Uint32(b), b[4:], true
}
