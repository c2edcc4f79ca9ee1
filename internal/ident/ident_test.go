package ident

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewUUIDVersionAndVariant(t *testing.T) {
	for i := 0; i < 100; i++ {
		u := NewUUID()
		if v := u[6] >> 4; v != 4 {
			t.Fatalf("UUID version = %d, want 4", v)
		}
		if u[8]&0xc0 != 0x80 {
			t.Fatalf("UUID variant bits = %#x, want RFC 4122", u[8]&0xc0)
		}
	}
}

func TestNewUUIDUnique(t *testing.T) {
	seen := make(map[UUID]bool)
	for i := 0; i < 10000; i++ {
		u := NewUUID()
		if seen[u] {
			t.Fatalf("duplicate UUID generated: %v", u)
		}
		seen[u] = true
	}
}

func TestUUIDStringFormat(t *testing.T) {
	u := UUID{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0,
		0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88}
	want := "12345678-9abc-def0-1122-334455667788"
	if got := u.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestParseUUIDRoundTrip(t *testing.T) {
	prop := func(b [16]byte) bool {
		u := UUID(b)
		parsed, err := ParseUUID(u.String())
		return err == nil && parsed == u
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseUUIDRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"12345678-9abc-def0-1122-33445566778",   // too short
		"12345678-9abc-def0-1122-3344556677889", // too long
		"12345678x9abc-def0-1122-334455667788",  // wrong separator
		"1234567g-9abc-def0-1122-334455667788",  // non-hex
		strings.Repeat("-", 36),
	}
	for _, s := range bad {
		if _, err := ParseUUID(s); err == nil {
			t.Errorf("ParseUUID(%q) accepted malformed input", s)
		}
	}
}

func TestUUIDFromBytes(t *testing.T) {
	u := NewUUID()
	got, err := UUIDFromBytes(u.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got != u {
		t.Fatalf("round trip via bytes: got %v, want %v", got, u)
	}
	if _, err := UUIDFromBytes([]byte{1, 2, 3}); err == nil {
		t.Fatal("UUIDFromBytes accepted short slice")
	}
}

func TestUUIDIsNil(t *testing.T) {
	if !Nil.IsNil() {
		t.Fatal("Nil.IsNil() = false")
	}
	if NewUUID().IsNil() {
		t.Fatal("fresh UUID reported nil")
	}
}

func TestEntityIDValidate(t *testing.T) {
	cases := []struct {
		id EntityID
		ok bool
	}{
		{"service-42", true},
		{"user@example", true},
		{"", false},
		{"bad/slash", false},
		{"*", false},
		{"a*b", true},
	}
	for _, c := range cases {
		err := c.id.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%q) error = %v, want ok=%v", c.id, err, c.ok)
		}
	}
}

func TestRequestAndSessionIDs(t *testing.T) {
	if NewRequestID() == NewRequestID() {
		t.Fatal("request IDs collide")
	}
	if NewSessionID() == NewSessionID() {
		t.Fatal("session IDs collide")
	}
}
