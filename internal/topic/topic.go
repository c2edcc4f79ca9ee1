// Package topic implements the topic machinery of the publish/subscribe
// substrate: plain "/"-separated topics (§2.1), the constrained-topic
// grammar of §3.1 with its default elements and equivalence rules, and
// builders for the trace and derivative topics of Tables 1 and 2. Every
// subscription names one exact topic: brokers route on string equality.
package topic

import (
	"errors"
	"fmt"
	"strings"

	"entitytrace/internal/ident"
)

// Wildcard is a reserved segment: Parse refuses any topic containing
// it, so no subscription, publish or requester-chosen delivery topic can
// name a subtree instead of one exact topic.
const Wildcard = "*"

// ErrBadTopic reports a malformed topic string.
var ErrBadTopic = errors.New("topic: malformed topic")

// Topic is a parsed "/"-separated topic. The zero value is invalid;
// construct topics with Parse or Build.
type Topic struct {
	segments []string
	// str caches the canonical form: topics are parsed once but
	// stringified on every routing decision, so String must not
	// re-join segments per call.
	str string
	// c is the topic's §3.1 reading, taken once by Parse so that
	// authorization and propagation checks never re-run the grammar.
	c constraint
}

// Parse validates and parses a topic string. Topics must start with '/'
// (leading-slash-less strings such as descriptors are handled by the TDN
// query machinery, not here), must not contain empty segments, and may
// not use the reserved Wildcard segment.
func Parse(s string) (Topic, error) {
	if s == "" || s[0] != '/' {
		return Topic{}, fmt.Errorf("%w: %q (must start with '/')", ErrBadTopic, s)
	}
	raw := strings.Split(s[1:], "/")
	for _, seg := range raw {
		if seg == "" {
			return Topic{}, fmt.Errorf("%w: %q (empty segment)", ErrBadTopic, s)
		}
		if seg == Wildcard {
			return Topic{}, fmt.Errorf("%w: %q (%q is a reserved segment)", ErrBadTopic, s, Wildcard)
		}
	}
	return Topic{segments: raw, str: s, c: readConstraint(raw)}, nil
}

// MustParse is Parse for statically known strings; it panics on error.
func MustParse(s string) Topic {
	t, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return t
}

// Build constructs a topic from individual segments.
func Build(segments ...string) (Topic, error) {
	if len(segments) == 0 {
		return Topic{}, fmt.Errorf("%w: no segments", ErrBadTopic)
	}
	return Parse("/" + strings.Join(segments, "/"))
}

// String returns the canonical "/a/b/c" form.
func (t Topic) String() string {
	if len(t.segments) == 0 {
		return ""
	}
	if t.str != "" {
		return t.str
	}
	return "/" + strings.Join(t.segments, "/")
}

// Segments returns a copy of the topic's path elements.
func (t Topic) Segments() []string {
	return append([]string(nil), t.segments...)
}

// Len returns the number of segments.
func (t Topic) Len() int { return len(t.segments) }

// IsZero reports whether the topic is the (invalid) zero value.
func (t Topic) IsZero() bool { return len(t.segments) == 0 }

// Child returns the topic extended with extra segments.
func (t Topic) Child(segments ...string) (Topic, error) {
	if t.IsZero() {
		return Topic{}, fmt.Errorf("%w: child of zero topic", ErrBadTopic)
	}
	all := append(t.Segments(), segments...)
	return Build(all...)
}

// Equal reports exact segment equality.
func (t Topic) Equal(other Topic) bool {
	if len(t.segments) != len(other.segments) {
		return false
	}
	for i := range t.segments {
		if t.segments[i] != other.segments[i] {
			return false
		}
	}
	return true
}

// Descriptor is a topic descriptor registered at a TDN during topic
// creation (§3.1), e.g. "Availability/Traces/<Entity-ID>". Descriptors do
// not carry a leading slash in the paper's examples.
type Descriptor string

// AvailabilityDescriptor builds the descriptor a traced entity registers
// for its trace topic: Availability/Traces/Entity-ID (§3.1).
func AvailabilityDescriptor(entity ident.EntityID) Descriptor {
	return Descriptor("Availability/Traces/" + string(entity))
}

// LivenessQuery builds the discovery query a tracker uses to find an
// entity's trace topic: /Liveness/Entity-ID (§3.4).
func LivenessQuery(entity ident.EntityID) string {
	return "/Liveness/" + string(entity)
}

// EntityFromLivenessQuery extracts the entity ID from a /Liveness/<ID>
// query, reporting ok=false for anything else.
func EntityFromLivenessQuery(q string) (ident.EntityID, bool) {
	const prefix = "/Liveness/"
	if !strings.HasPrefix(q, prefix) {
		return "", false
	}
	id := ident.EntityID(q[len(prefix):])
	if id.Validate() != nil {
		return "", false
	}
	return id, true
}
