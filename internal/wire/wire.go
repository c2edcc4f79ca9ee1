// Package wire is the one binary codec of the protocol's artifacts:
// envelopes, authorization tokens, TDN advertisements and RPC frames,
// broker control frames, broker-directory entries and sealed session
// parameters all read and write through it. Integers are big-endian and
// fixed-width, variable-length fields carry a length prefix, a Reader
// latches its first error, and every u32 length prefix is checked
// against the field cap the Reader was built with before any byte is
// taken.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated reports a buffer that ended before a complete value.
var ErrTruncated = errors.New("wire: truncated data")

// ErrTooLarge reports a length prefix over the reader's field cap.
var ErrTooLarge = errors.New("wire: field too large")

// The field caps in use, guarding against hostile length prefixes:
// envelopes and TDN frames take MaxField, tokens and broker control
// frames MaxSmallField.
const (
	MaxField      = 16 << 20
	MaxSmallField = 1 << 20
)

// Writer accumulates wire bytes in Buf.
type Writer struct {
	Buf []byte
}

// U8, U16, U32, U64, I64 and F64 append fixed-width big-endian values.
func (w *Writer) U8(v uint8)   { w.Buf = append(w.Buf, v) }
func (w *Writer) U16(v uint16) { w.Buf = binary.BigEndian.AppendUint16(w.Buf, v) }
func (w *Writer) U32(v uint32) { w.Buf = binary.BigEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64) { w.Buf = binary.BigEndian.AppendUint64(w.Buf, v) }
func (w *Writer) I64(v int64)  { w.U64(uint64(v)) }
func (w *Writer) F64(v float64) {
	w.U64(math.Float64bits(v))
}

// Bool writes 1 for true and 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw appends b with no length prefix: a fixed-width field such as a
// UUID or a digest.
func (w *Writer) Raw(b []byte) { w.Buf = append(w.Buf, b...) }

// Varint writes v zigzag-encoded as a uvarint: the compact encoding the
// telemetry snapshot uses for counter deltas and gauge values, where
// small magnitudes of either sign dominate.
func (w *Writer) Varint(v int64) {
	w.Buf = binary.AppendUvarint(w.Buf, uint64((v<<1)^(v>>63)))
}

// Bytes writes a u32 length prefix followed by the data.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Str writes s like Bytes, appending it directly: a []byte(s)
// conversion would allocate for anything longer than a stack buffer.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Bytes16 writes a u16 length prefix followed by the data; the caller
// keeps len(b) within 65,535.
func (w *Writer) Bytes16(b []byte) {
	w.U16(uint16(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Reader consumes wire bytes, latching the first error: after one, every
// read returns a zero value. A shared reader returns sub-slices of the
// input from Bytes instead of copies — only safe when the caller owns the
// buffer and never reuses it (receive paths, where every transport hands
// over a freshly allocated frame).
type Reader struct {
	b        []byte
	off      int
	err      error
	maxField int
	shared   bool
}

// NewReader reads b, refusing any length-prefixed field over maxField
// bytes.
func NewReader(b []byte, maxField int) *Reader { return &Reader{b: b, maxField: maxField} }

// NewSharedReader is NewReader whose Bytes alias b.
func NewSharedReader(b []byte, maxField int) *Reader {
	return &Reader{b: b, maxField: maxField, shared: true}
}

// fail latches err unless an error is already latched.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err returns the latched error.
func (r *Reader) Err() error { return r.err }

// Offset returns the number of bytes consumed.
func (r *Reader) Offset() int { return r.off }

// Len returns the number of bytes left unread.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Take returns the next n bytes as a sub-slice of the input.
func (r *Reader) Take(n int) []byte {
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

// Rest returns every unread byte as a copy and consumes them: the
// trailing unprefixed field of a format.
func (r *Reader) Rest() []byte {
	return append([]byte(nil), r.Take(r.Len())...)
}

// U8, U16, U32, U64, I64 and F64 read fixed-width big-endian values.
func (r *Reader) U8() uint8 {
	b := r.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U16() uint16 {
	b := r.Take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *Reader) U32() uint32 {
	b := r.Take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte as true when it is 1.
func (r *Reader) Bool() bool { return r.U8() == 1 }

// Varint reads one zigzag-encoded uvarint.
func (r *Reader) Varint() int64 {
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

// UUID reads a 16-byte identifier.
func (r *Reader) UUID() [16]byte {
	var u [16]byte
	copy(u[:], r.Take(16))
	return u
}

// View reads a u32 length prefix and returns the field as a sub-slice
// of the input, never a copy: the caller converts, interns or copies it.
func (r *Reader) View() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if uint64(n) > uint64(r.maxField) {
		r.fail(fmt.Errorf("%w: %d bytes", ErrTooLarge, n))
		return nil
	}
	return r.Take(int(n))
}

// Bytes reads a u32 length prefix and returns the data: a copy by
// default, a capacity-clipped sub-slice of the input when the reader is
// shared (the receive hot path, where the field copies are the dominant
// allocation cost).
func (r *Reader) Bytes() []byte {
	return r.own(r.View())
}

// Str reads a u32-prefixed field as a string.
func (r *Reader) Str() string { return string(r.View()) }

// Bytes16 reads a u16 length prefix and returns the data like Bytes. A
// u16 length is within every field cap, so it is not checked.
func (r *Reader) Bytes16() []byte {
	return r.own(r.Take(int(r.U16())))
}

func (r *Reader) own(b []byte) []byte {
	if b == nil {
		return nil
	}
	if r.shared {
		return b[:len(b):len(b)]
	}
	return append([]byte(nil), b...)
}

// Done verifies the buffer was fully consumed and returns the latched
// error, if any.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}
