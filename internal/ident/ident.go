// Package ident provides the identifiers used throughout the tracking
// framework: 128-bit UUIDs (the paper's trace topics are UUIDs generated
// at Topic Discovery Nodes), entity identifiers, request identifiers and
// session identifiers.
package ident

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// UUID is a 128-bit identifier, unique in space and time, per RFC 4122
// version 4 (random).
type UUID [16]byte

// Nil is the zero UUID.
var Nil UUID

// NewUUID generates a random (version 4) UUID using crypto/rand.
func NewUUID() UUID {
	var u UUID
	if _, err := rand.Read(u[:]); err != nil {
		// crypto/rand failure means the platform is unusable; there is no
		// meaningful recovery for identifier generation.
		panic(fmt.Sprintf("ident: crypto/rand failed: %v", err))
	}
	u[6] = (u[6] & 0x0f) | 0x40 // version 4
	u[8] = (u[8] & 0x3f) | 0x80 // RFC 4122 variant
	return u
}

// String formats the UUID in the canonical 8-4-4-4-12 form.
func (u UUID) String() string {
	var b [36]byte
	hex.Encode(b[0:8], u[0:4])
	b[8] = '-'
	hex.Encode(b[9:13], u[4:6])
	b[13] = '-'
	hex.Encode(b[14:18], u[6:8])
	b[18] = '-'
	hex.Encode(b[19:23], u[8:10])
	b[23] = '-'
	hex.Encode(b[24:36], u[10:16])
	return string(b[:])
}

// IsNil reports whether u is the zero UUID.
func (u UUID) IsNil() bool { return u == Nil }

// Bytes returns the raw 16 bytes of the UUID.
func (u UUID) Bytes() []byte {
	b := make([]byte, 16)
	copy(b, u[:])
	return b
}

// ErrBadUUID reports a malformed UUID string or byte slice.
var ErrBadUUID = errors.New("ident: malformed UUID")

// ParseUUID parses the canonical 8-4-4-4-12 textual form (hex digits of
// either case). It does not allocate unless it fails: brokers parse the
// trace-topic UUID out of topics on the routing path.
func ParseUUID(s string) (UUID, error) {
	var u UUID
	if len(s) != 36 || s[8] != '-' || s[13] != '-' || s[18] != '-' || s[23] != '-' {
		return u, fmt.Errorf("%w: %q", ErrBadUUID, s)
	}
	j := 0
	for i := 0; i < len(s); i += 2 {
		if i == 8 || i == 13 || i == 18 || i == 23 {
			i-- // step over the dash
			continue
		}
		hi, ok1 := unhex(s[i])
		lo, ok2 := unhex(s[i+1])
		if !ok1 || !ok2 {
			return UUID{}, fmt.Errorf("%w: %q", ErrBadUUID, s)
		}
		u[j] = hi<<4 | lo
		j++
	}
	return u, nil
}

// unhex decodes one hex digit.
func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// UUIDFromBytes copies a 16-byte slice into a UUID.
func UUIDFromBytes(b []byte) (UUID, error) {
	var u UUID
	if len(b) != 16 {
		return u, fmt.Errorf("%w: %d bytes", ErrBadUUID, len(b))
	}
	copy(u[:], b)
	return u, nil
}

// EntityID names an entity in the distributed system: a resource, a
// service, an application or a user (paper §1). Entity IDs are free-form
// but must be non-empty, must not contain '/', which would corrupt topic
// strings built from them, and must not be "*", the segment the topic
// grammar reserves.
type EntityID string

// Validate reports whether the entity ID is usable as a topic segment.
func (e EntityID) Validate() error {
	switch {
	case e == "":
		return errors.New("ident: empty entity ID")
	case e == "*":
		return errors.New(`ident: entity ID "*" is a reserved topic segment`)
	case strings.ContainsRune(string(e), '/'):
		return fmt.Errorf("ident: entity ID %q contains '/'", string(e))
	}
	return nil
}

func (e EntityID) String() string { return string(e) }

// RequestID correlates a request with its response (paper §3.2 item 3).
type RequestID = UUID

// NewRequestID generates a fresh request identifier.
func NewRequestID() RequestID { return NewUUID() }

// SessionID identifies a tracing session established between a traced
// entity and its hosting broker (paper §3.2).
type SessionID = UUID

// NewSessionID generates a fresh session identifier.
func NewSessionID() SessionID { return NewUUID() }
