// Package message defines the message envelope exchanged through the
// broker network and the payloads of the tracing protocol (registrations,
// pings, traces, gauge-interest exchanges, key deliveries). Messages are
// serialized with a small hand-rolled binary codec: length-prefixed
// fields, big-endian fixed-width integers, no reflection.
package message

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"entitytrace/internal/ident"
)

// ErrTruncated reports a wire buffer that ended before a complete value.
var ErrTruncated = errors.New("message: truncated wire data")

// ErrTooLarge reports a field exceeding wire limits.
var ErrTooLarge = errors.New("message: field too large")

// maxFieldLen bounds any single length-prefixed field (16 MiB), guarding
// against hostile length prefixes.
const maxFieldLen = 16 << 20

// writer accumulates wire bytes.
type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *writer) uuid(u ident.UUID) { w.buf = append(w.buf, u[:]...) }

// varint writes v zigzag-encoded as a uvarint: the compact encoding the
// telemetry snapshot uses for counter deltas and gauge values, where
// small magnitudes of either sign dominate.
func (w *writer) varint(v int64) {
	w.buf = binary.AppendUvarint(w.buf, uint64((v<<1)^(v>>63)))
}

// bytes writes a u32 length prefix followed by the data.
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// str writes s like bytes, appending it directly: a []byte(s)
// conversion would allocate for anything longer than a stack buffer.
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// reader consumes wire bytes, latching the first error. A shared reader
// returns sub-slices of the input from bytes() instead of copies — only
// safe when the caller owns the buffer and never reuses it (receive
// paths, where every transport hands over a freshly allocated frame).
type reader struct {
	b      []byte
	off    int
	err    error
	shared bool
}

func newReader(b []byte) *reader { return &reader{b: b} }

func newSharedReader(b []byte) *reader { return &reader{b: b, shared: true} }

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail(ErrTruncated)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

// varint reads one zigzag-encoded uvarint.
func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) uuid() ident.UUID {
	var u ident.UUID
	b := r.take(16)
	if b != nil {
		copy(u[:], b)
	}
	return u
}

// view reads a u32 length prefix and returns the field as a sub-slice
// of the input, never a copy: the caller converts, interns or copies it.
func (r *reader) view() []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if n > maxFieldLen {
		r.fail(fmt.Errorf("%w: %d bytes", ErrTooLarge, n))
		return nil
	}
	return r.take(int(n))
}

// bytes reads a u32 length prefix and returns the data: a copy by
// default, a capacity-clipped sub-slice of the input when the reader is
// shared (the receive hot path, where the field copies are the dominant
// allocation cost).
func (r *reader) bytes() []byte {
	b := r.view()
	if b == nil {
		return nil
	}
	if r.shared {
		return b[:len(b):len(b)]
	}
	return append([]byte(nil), b...)
}

func (r *reader) str() string { return string(r.view()) }

// done verifies the buffer was fully consumed and returns the latched
// error, if any.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("message: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}
