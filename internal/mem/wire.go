// Wire framing for snapshot-to-bytes serialization. Every layer that
// serializes machine state (mem, mmu, cpu, kernel, core, webserver)
// encodes through Enc and decodes through Dec, so the one decoder that
// must survive hostile input — length handling, bounds checks, typed
// errors — lives in exactly one place and is the fuzz target for all
// of them.
//
// The format is deterministic: fixed-width little-endian integers,
// length-prefixed byte strings, and map contents emitted in sorted key
// order by the callers. Determinism is load-bearing — the round-trip
// tests compare serialized images byte-for-byte.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
)

// Typed decode errors. Callers (and tests) classify failures with
// errors.Is; a decoder never panics on hostile input, it returns one
// of these wrapped with context.
var (
	// ErrTruncated: the input ended before the structure it promised.
	ErrTruncated = errors.New("mem: truncated image")
	// ErrBadMagic: the envelope does not start with the expected magic.
	ErrBadMagic = errors.New("mem: bad image magic")
	// ErrBadVersion: the envelope version is not the supported one.
	ErrBadVersion = errors.New("mem: unsupported image version")
	// ErrChecksum: the envelope CRC does not match its contents.
	ErrChecksum = errors.New("mem: image checksum mismatch")
	// ErrCorrupt: the framing decoded but the contents violate a
	// structural invariant (out-of-range index, wrong order, ...).
	ErrCorrupt = errors.New("mem: corrupt image")
)

// Enc accumulates a serialized image. The zero value is ready to use.
type Enc struct {
	buf []byte
}

// Data returns the accumulated encoding.
func (e *Enc) Data() []byte { return e.buf }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte (0 or 1).
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a little-endian 16-bit value.
func (e *Enc) U16(v uint16) {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}

// U32 appends a little-endian 32-bit value.
func (e *Enc) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a little-endian 64-bit value.
func (e *Enc) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I32 appends a little-endian 32-bit value in two's complement.
func (e *Enc) I32(v int32) { e.U32(uint32(v)) }

// F64 appends the IEEE 754 bit pattern of v (exact round trip).
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes appends b with a 32-bit length prefix.
func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends s with a 32-bit length prefix.
func (e *Enc) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Raw appends b with no length prefix (fixed-size fields whose length
// the decoder knows from the format).
func (e *Enc) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Dec decodes a serialized image. It is error-sticky: the first
// failure latches into err, every later accessor returns a zero value
// without advancing, and the caller checks Err once at the end — decode
// loops stay free of per-field error plumbing while still never
// reading out of bounds.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over b. The decoder aliases b; the caller
// must not mutate it while decoding.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// Err reports the first decode failure, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining reports how many bytes have not been consumed.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Failf latches a structural-corruption error (wrapping ErrCorrupt)
// unless an earlier failure already latched.
func (d *Dec) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (at offset %d)", ErrCorrupt, fmt.Sprintf(format, args...), d.off)
	}
}

// take consumes n bytes, latching ErrTruncated when fewer remain.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d, have %d", ErrTruncated, n, d.off, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 consumes one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool consumes a boolean byte, latching ErrCorrupt unless it is 0 or 1.
func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Failf("boolean byte %#x", v)
		return false
	}
	return v == 1
}

// U16 consumes a little-endian 16-bit value.
func (d *Dec) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 consumes a little-endian 32-bit value.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 consumes a little-endian 64-bit value.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 consumes a little-endian 32-bit two's-complement value.
func (d *Dec) I32() int32 { return int32(d.U32()) }

// F64 consumes an IEEE 754 bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// NonNegF64 decodes a float64 that must be finite and non-negative,
// such as a cycle cost or a clock reading, and latches ErrCorrupt
// naming what when it is not: a negative, infinite or NaN amount
// charged to a simulated clock would panic or poison it.
func (d *Dec) NonNegF64(what string) float64 {
	v := d.F64()
	if d.err == nil && !(v >= 0 && v <= math.MaxFloat64) {
		d.Failf("%s %v is not a finite non-negative number", what, v)
	}
	return v
}

// Bytes consumes a 32-bit length prefix and that many bytes. The
// returned slice aliases the input buffer.
func (d *Dec) Bytes() []byte {
	n := d.U32()
	return d.take(int(n))
}

// String consumes a 32-bit length prefix and that many bytes.
func (d *Dec) String() string { return string(d.Bytes()) }

// Raw consumes exactly n bytes. The returned slice aliases the input.
func (d *Dec) Raw(n int) []byte { return d.take(n) }

// Len consumes a 32-bit count of collection elements and validates it,
// latching ErrCorrupt when it exceeds either the static bound or the
// bytes left in the input (every element encodes at least one byte).
// Decoders size every collection through this so neither a flipped
// length byte nor a crafted, correctly sealed image can drive a large
// allocation before validation catches it.
func (d *Dec) Len(what string, max int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if int64(n) > int64(max) {
		d.Failf("%s count %d exceeds limit %d", what, n, max)
		return 0
	}
	if int64(n) > int64(d.Remaining()) {
		d.Failf("%s count %d exceeds the %d bytes remaining", what, n, d.Remaining())
		return 0
	}
	return int(n)
}

// The envelope wraps a payload with magic, version, explicit length
// and a trailing CRC:
//
//	magic[8] | version u16 | payloadLen u64 | payload | crc64 u64
//
// The CRC covers everything before it. Open verifies all four fields
// before returning the payload, so layer decoders behind it only see
// images that were produced by a matching Seal and survived transit
// bit-exactly — random corruption is caught here with ErrChecksum,
// and the structural checks in the decoders catch crafted input.
const (
	envMagicLen = 8
	envHdrLen   = envMagicLen + 2 + 8
	envCRCLen   = 8
)

var envCRCTable = crc64.MakeTable(crc64.ECMA)

// Seal wraps payload in an envelope. magic must be exactly 8 bytes.
func Seal(magic string, version uint16, payload []byte) []byte {
	if len(magic) != envMagicLen {
		panic(fmt.Sprintf("mem: envelope magic %q is not %d bytes", magic, envMagicLen))
	}
	out := make([]byte, 0, envHdrLen+len(payload)+envCRCLen)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint16(out, version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint64(out, crc64.Checksum(out, envCRCTable))
}

// Open verifies the envelope and returns the payload (aliasing data).
func Open(magic string, version uint16, data []byte) ([]byte, error) {
	if len(magic) != envMagicLen {
		panic(fmt.Sprintf("mem: envelope magic %q is not %d bytes", magic, envMagicLen))
	}
	if len(data) < envHdrLen+envCRCLen {
		return nil, fmt.Errorf("%w: envelope needs %d bytes, have %d", ErrTruncated, envHdrLen+envCRCLen, len(data))
	}
	if string(data[:envMagicLen]) != magic {
		return nil, fmt.Errorf("%w: want %q, have %q", ErrBadMagic, magic, data[:envMagicLen])
	}
	if v := binary.LittleEndian.Uint16(data[envMagicLen:]); v != version {
		return nil, fmt.Errorf("%w: want %d, have %d", ErrBadVersion, version, v)
	}
	plen := binary.LittleEndian.Uint64(data[envMagicLen+2:])
	if plen != uint64(len(data)-envHdrLen-envCRCLen) {
		if plen > uint64(len(data)) {
			return nil, fmt.Errorf("%w: envelope promises %d payload bytes, have %d", ErrTruncated, plen, len(data)-envHdrLen-envCRCLen)
		}
		return nil, fmt.Errorf("%w: payload length %d does not match envelope size", ErrCorrupt, plen)
	}
	body := data[:len(data)-envCRCLen]
	want := binary.LittleEndian.Uint64(data[len(data)-envCRCLen:])
	if got := crc64.Checksum(body, envCRCTable); got != want {
		return nil, fmt.Errorf("%w: crc64 %#x != %#x", ErrChecksum, got, want)
	}
	return data[envHdrLen : len(data)-envCRCLen], nil
}
