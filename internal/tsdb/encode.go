// Package tsdb is an embedded time-series store for run metrics. A
// Sampler walks an obs.Registry on a fixed interval and appends every
// series (counters, gauges, histogram count/sum/p99) to a single
// crash-safe file under the run's commons dir; queries serve
// step-aligned, gap-annotated windows to the dashboards, the
// `a4nn-analyze series` subcommand, and the health engine's cross-run
// regression monitor.
//
// The on-disk format is a fixed header, then self-describing CRC-framed
// blocks (internal/durable's section framing, shared with the flight
// recorder's bundles), appended through a durable.Log so a SIGKILL can
// only ever tear the final block. Block payloads are Gorilla-style
// compressed: delta-of-delta timestamps and XOR'd float bits, which
// squeezes a steady sampling interval over slowly-moving metrics to a
// couple of bits per sample. Reopen decodes every complete block and
// truncates a torn tail, exactly like events.jsonl recovery.
package tsdb

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"a4nn/internal/durable"
)

const (
	fileMagic   = "A4TS"
	fileVersion = 1

	// maxSeriesName bounds block name fields: a larger length in the
	// framing is corruption, not a long name.
	maxSeriesName = 256

	// maxChunkSamples bounds the sample count claimed by a block
	// payload so a corrupt varint cannot drive a huge allocation.
	maxChunkSamples = 1 << 20
)

// headerBytes renders the file header (magic + format version).
func headerBytes() []byte {
	b := make([]byte, 0, len(fileMagic)+4)
	b = append(b, fileMagic...)
	return binary.LittleEndian.AppendUint32(b, fileVersion)
}

// appendBlock frames one sealed chunk as a durable section named after
// its series.
func appendBlock(dst []byte, name string, payload []byte) []byte {
	return durable.AppendSection(dst, name, payload)
}

// Block is one decoded on-disk chunk of a series.
type Block struct {
	Series string
	Times  []int64 // unix milliseconds, in append order
	Values []float64
}

// DecodeBlocks decodes a complete series file. It returns every intact
// block, the byte offset just past the last intact block, and a non-nil
// error when the tail is torn or corrupt (the usual aftermath of a
// SIGKILL mid-append). It never panics on arbitrary input: every length
// is bounds-checked against the remaining bytes and every payload is
// CRC-verified before the chunk decoder sees it.
func DecodeBlocks(data []byte) (blocks []Block, good int, err error) {
	headLen := len(fileMagic) + 4
	if len(data) < headLen {
		return nil, 0, fmt.Errorf("tsdb: short header (%d bytes)", len(data))
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, 0, fmt.Errorf("tsdb: bad magic %q", data[:len(fileMagic)])
	}
	if v := binary.LittleEndian.Uint32(data[len(fileMagic):headLen]); v != fileVersion {
		return nil, 0, fmt.Errorf("tsdb: unsupported format version %d", v)
	}
	good = headLen
	for good < len(data) {
		name, payload, n, err := durable.NextSection(data[good:])
		if err != nil {
			return blocks, good, fmt.Errorf("tsdb: block at offset %d: %w", good, err)
		}
		if len(name) == 0 || len(name) > maxSeriesName {
			return blocks, good, fmt.Errorf("tsdb: bad name length %d at offset %d", len(name), good)
		}
		ts, vs, err := decodeChunk(payload)
		if err != nil {
			return blocks, good, fmt.Errorf("tsdb: block %q at offset %d: %w", name, good, err)
		}
		blocks = append(blocks, Block{Series: name, Times: ts, Values: vs})
		good += n
	}
	return blocks, good, nil
}

// encodeChunk compresses one run of samples. Layout: uvarint count,
// varint first timestamp (unix ms), 8 raw bytes for the first value,
// then an interleaved bitstream of delta-of-delta timestamps and
// Gorilla XOR values for the rest.
func encodeChunk(ts []int64, vs []float64) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(ts)))
	buf = binary.AppendVarint(buf, ts[0])
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(vs[0]))
	w := bitWriter{buf: buf}
	prevT, prevDelta := ts[0], int64(0)
	prevV := math.Float64bits(vs[0])
	var winLZ, winTZ uint
	haveWin := false
	for i := 1; i < len(ts); i++ {
		delta := ts[i] - prevT
		dod := delta - prevDelta
		prevT, prevDelta = ts[i], delta
		switch z := zigzag(dod); {
		case z == 0:
			w.writeBits(0, 1)
		case z < 1<<7:
			w.writeBits(0b10, 2)
			w.writeBits(z, 7)
		case z < 1<<12:
			w.writeBits(0b110, 3)
			w.writeBits(z, 12)
		case z < 1<<32:
			w.writeBits(0b1110, 4)
			w.writeBits(z, 32)
		default:
			w.writeBits(0b1111, 4)
			w.writeBits(z, 64)
		}
		cur := math.Float64bits(vs[i])
		x := cur ^ prevV
		prevV = cur
		if x == 0 {
			w.writeBits(0, 1)
			continue
		}
		w.writeBits(1, 1)
		lz := uint(bits.LeadingZeros64(x))
		if lz > 31 {
			lz = 31 // 5-bit field; a larger count just widens the window
		}
		tz := uint(bits.TrailingZeros64(x))
		if haveWin && lz >= winLZ && tz >= winTZ {
			w.writeBits(0, 1)
			w.writeBits(x>>winTZ, 64-winLZ-winTZ)
			continue
		}
		winLZ, winTZ, haveWin = lz, tz, true
		sig := 64 - lz - tz
		w.writeBits(1, 1)
		w.writeBits(uint64(lz), 5)
		w.writeBits(uint64(sig-1), 6)
		w.writeBits(x>>tz, sig)
	}
	return w.buf
}

// decodeChunk is the inverse of encodeChunk. All reads are bounded; a
// truncated or corrupt payload yields an error, never a panic.
func decodeChunk(payload []byte) ([]int64, []float64, error) {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("bad sample count varint")
	}
	payload = payload[sz:]
	if n == 0 || n > maxChunkSamples {
		return nil, nil, fmt.Errorf("implausible sample count %d", n)
	}
	// Each sample past the first costs at least two bits, so a count
	// the payload cannot possibly hold is corruption — reject before
	// allocating.
	if n-1 > uint64(len(payload))*4 {
		return nil, nil, fmt.Errorf("sample count %d exceeds payload capacity", n)
	}
	t0, sz := binary.Varint(payload)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("bad first-timestamp varint")
	}
	payload = payload[sz:]
	if len(payload) < 8 {
		return nil, nil, fmt.Errorf("truncated first value")
	}
	v0 := math.Float64frombits(binary.LittleEndian.Uint64(payload))
	ts := make([]int64, 1, n)
	vs := make([]float64, 1, n)
	ts[0], vs[0] = t0, v0
	r := bitReader{buf: payload[8:]}
	prevT, prevDelta := t0, int64(0)
	prevV := math.Float64bits(v0)
	var winLZ, winTZ uint
	haveWin := false
	for uint64(len(ts)) < n {
		var dod int64
		bit, err := r.readBits(1)
		if err != nil {
			return nil, nil, err
		}
		if bit == 1 {
			width := uint(0)
			for _, w := range []uint{7, 12, 32} {
				next, err := r.readBits(1)
				if err != nil {
					return nil, nil, err
				}
				if next == 0 {
					width = w
					break
				}
			}
			if width == 0 {
				width = 64
			}
			z, err := r.readBits(width)
			if err != nil {
				return nil, nil, err
			}
			dod = unzigzag(z)
		}
		prevDelta += dod
		prevT += prevDelta
		bit, err = r.readBits(1)
		if err != nil {
			return nil, nil, err
		}
		cur := prevV
		if bit == 1 {
			ctrl, err := r.readBits(1)
			if err != nil {
				return nil, nil, err
			}
			if ctrl == 1 {
				lz, err := r.readBits(5)
				if err != nil {
					return nil, nil, err
				}
				sigM1, err := r.readBits(6)
				if err != nil {
					return nil, nil, err
				}
				sig := uint(sigM1) + 1
				if uint(lz)+sig > 64 {
					return nil, nil, fmt.Errorf("bad XOR window (lz=%d sig=%d)", lz, sig)
				}
				winLZ, winTZ, haveWin = uint(lz), 64-uint(lz)-sig, true
			} else if !haveWin {
				return nil, nil, fmt.Errorf("XOR window reuse before definition")
			}
			x, err := r.readBits(64 - winLZ - winTZ)
			if err != nil {
				return nil, nil, err
			}
			cur = prevV ^ (x << winTZ)
		}
		prevV = cur
		ts = append(ts, prevT)
		vs = append(vs, math.Float64frombits(cur))
	}
	return ts, vs, nil
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// bitWriter appends MSB-first bit runs to a byte buffer. The zero
// value (or one wrapping an existing byte-aligned buffer) is ready to
// use.
type bitWriter struct {
	buf  []byte
	free uint // unused low bits in the final byte
}

func (w *bitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		if w.free == 0 {
			w.buf = append(w.buf, 0)
			w.free = 8
		}
		take := n
		if take > w.free {
			take = w.free
		}
		chunk := (v >> (n - take)) & (1<<take - 1)
		w.buf[len(w.buf)-1] |= byte(chunk << (w.free - take))
		w.free -= take
		n -= take
	}
}

// bitReader consumes MSB-first bit runs; reads past the end return
// io.ErrUnexpectedEOF rather than panicking.
type bitReader struct {
	buf []byte
	pos uint // absolute bit offset
}

func (r *bitReader) readBits(n uint) (uint64, error) {
	if uint(len(r.buf))*8-r.pos < n {
		return 0, io.ErrUnexpectedEOF
	}
	var v uint64
	for n > 0 {
		avail := 8 - r.pos&7
		take := n
		if take > avail {
			take = avail
		}
		chunk := uint64(r.buf[r.pos>>3]>>(avail-take)) & (1<<take - 1)
		v = v<<take | chunk
		r.pos += take
		n -= take
	}
	return v, nil
}
