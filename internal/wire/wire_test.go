package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xab)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(math.MaxUint64 - 1)
	w.I64(-42)
	w.F64(3.25)
	w.Bool(true)
	w.Bool(false)
	w.Raw([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	w.Varint(-300)
	w.Varint(math.MaxInt64)
	w.Bytes([]byte("bytes"))
	w.Str("string")
	w.Bytes16([]byte("short"))
	w.Raw([]byte("rest"))

	r := NewReader(w.Buf, MaxSmallField)
	if v := r.U8(); v != 0xab {
		t.Errorf("U8 %x", v)
	}
	if v := r.U16(); v != 0xbeef {
		t.Errorf("U16 %x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Errorf("U32 %x", v)
	}
	if v := r.U64(); v != math.MaxUint64-1 {
		t.Errorf("U64 %x", v)
	}
	if v := r.I64(); v != -42 {
		t.Errorf("I64 %d", v)
	}
	if v := r.F64(); v != 3.25 {
		t.Errorf("F64 %v", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool")
	}
	if v := r.UUID(); v != [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16} {
		t.Errorf("UUID %x", v)
	}
	if v := r.Varint(); v != -300 {
		t.Errorf("Varint %d", v)
	}
	if v := r.Varint(); v != math.MaxInt64 {
		t.Errorf("Varint %d", v)
	}
	if v := r.Bytes(); string(v) != "bytes" {
		t.Errorf("Bytes %q", v)
	}
	if v := r.Str(); v != "string" {
		t.Errorf("Str %q", v)
	}
	if v := r.Bytes16(); string(v) != "short" {
		t.Errorf("Bytes16 %q", v)
	}
	if r.Len() != 4 || r.Offset() != len(w.Buf)-4 {
		t.Errorf("Len %d Offset %d", r.Len(), r.Offset())
	}
	if v := r.Rest(); string(v) != "rest" {
		t.Errorf("Rest %q", v)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedAliasesInput checks that a shared reader's Bytes and
// Bytes16 alias the input with their capacity clipped, and a plain
// reader's are copies.
func TestSharedAliasesInput(t *testing.T) {
	var w Writer
	w.Bytes([]byte("abc"))
	w.Bytes16([]byte("de"))
	for _, shared := range []bool{false, true} {
		in := bytes.Clone(w.Buf)
		r := NewReader(in, MaxField)
		if shared {
			r = NewSharedReader(in, MaxField)
		}
		a, b := r.Bytes(), r.Bytes16()
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
		if cap(a) != len(a) && shared {
			t.Errorf("shared field capacity %d, want %d", cap(a), len(a))
		}
		in[4], in[len(in)-1] = 'X', 'Y'
		aliased := a[0] == 'X' && b[1] == 'Y'
		if aliased != shared {
			t.Errorf("shared=%v: fields aliased=%v", shared, aliased)
		}
	}
}

func TestErrors(t *testing.T) {
	var big Writer
	big.U32(MaxSmallField + 1)
	big.Raw(make([]byte, MaxSmallField+1))
	var two Writer
	two.Str("ab")
	for _, tc := range []struct {
		name string
		in   []byte
		max  int
		read func(r *Reader)
		want error
	}{
		{"short u64", []byte{1, 2, 3}, MaxField, func(r *Reader) { r.U64() }, ErrTruncated},
		{"short field", []byte{0, 0, 0, 9, 'a'}, MaxField, func(r *Reader) { r.Bytes() }, ErrTruncated},
		{"short u16 field", []byte{0, 9, 'a'}, MaxField, func(r *Reader) { r.Bytes16() }, ErrTruncated},
		{"short varint", []byte{0x80}, MaxField, func(r *Reader) { r.Varint() }, ErrTruncated},
		{"negative take", []byte{1}, MaxField, func(r *Reader) { r.Take(-1) }, ErrTruncated},
		{"over cap", big.Buf, MaxSmallField, func(r *Reader) { r.View() }, ErrTooLarge},
		{"at cap", two.Buf, 2, func(r *Reader) { r.Str() }, nil},
		{"over small cap", two.Buf, 1, func(r *Reader) { r.Str() }, ErrTooLarge},
	} {
		r := NewReader(tc.in, tc.max)
		tc.read(r)
		if err := r.Err(); !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestLatchedError checks that the first error sticks, that every read
// after it returns a zero value without moving, and that Done reports
// unread bytes.
func TestLatchedError(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 5, 'a', 'b'}, MaxField)
	if r.Bytes() != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("truncated field read: %v", r.Err())
	}
	r.fail(ErrTooLarge)
	off := r.Offset()
	if r.U8() != 0 || r.U64() != 0 || r.Str() != "" || r.Bytes16() != nil || r.Varint() != 0 || r.Rest() != nil || r.UUID() != [16]byte{} {
		t.Fatal("read after error returned data")
	}
	if r.Offset() != off || !errors.Is(r.Done(), ErrTruncated) {
		t.Fatalf("offset %d → %d, err %v", off, r.Offset(), r.Done())
	}
	r = NewReader([]byte{1, 2}, MaxField)
	r.U8()
	if err := r.Done(); err == nil {
		t.Fatal("trailing byte accepted")
	}
}
