package topic

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"entitytrace/internal/ident"
)

func TestParseValid(t *testing.T) {
	cases := []string{
		"/a",
		"/StockQuotes/Companies/Adobe",
		"/Constrained/Traces/Broker/Subscribe-Only/Registration",
	}
	for _, s := range cases {
		tp, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", s, err)
			continue
		}
		if tp.String() != s {
			t.Errorf("Parse(%q).String() = %q", s, tp.String())
		}
	}
}

func TestParseInvalid(t *testing.T) {
	cases := []string{
		"",
		"nolead/slash",
		"/",
		"/a//b",
		"/a/",
		"/a/*/b", // reserved wildcard segment
		"/a/b/*",
		"/*",
	}
	for _, s := range cases {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted malformed topic", s)
		}
	}
}

func TestBuildAndSegments(t *testing.T) {
	tp, err := Build("x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	if tp.String() != "/x/y/z" {
		t.Fatalf("Build = %q", tp.String())
	}
	segs := tp.Segments()
	segs[0] = "mutated"
	if tp.Segments()[0] != "x" {
		t.Fatal("Segments() exposed internal slice")
	}
	if tp.Len() != 3 {
		t.Fatalf("Len = %d", tp.Len())
	}
	if _, err := Build(); err == nil {
		t.Fatal("Build() with no segments succeeded")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad topic")
		}
	}()
	MustParse("bad")
}

func TestChild(t *testing.T) {
	base := MustParse("/Traces")
	child, err := base.Child("abc", "def")
	if err != nil {
		t.Fatal(err)
	}
	if child.String() != "/Traces/abc/def" {
		t.Fatalf("Child = %q", child)
	}
	if _, err := (Topic{}).Child("x"); err == nil {
		t.Fatal("Child of zero topic succeeded")
	}
	if _, err := base.Child(Wildcard); err == nil {
		t.Fatal("Child with the reserved wildcard segment succeeded")
	}
}

func TestEqual(t *testing.T) {
	a := MustParse("/x/y/z")
	b := MustParse("/x/y/z")
	c := MustParse("/x/y")
	if !a.Equal(b) || a.Equal(c) || c.Equal(a) {
		t.Fatal("Equal misbehaved")
	}
}

func TestIsZeroAndWildcard(t *testing.T) {
	if !(Topic{}).IsZero() {
		t.Fatal("zero topic not IsZero")
	}
	if MustParse("/a").IsZero() {
		t.Fatal("parsed topic IsZero")
	}
	if _, err := Parse("/a/" + Wildcard); !errors.Is(err, ErrBadTopic) {
		t.Fatalf("Parse of a wildcard topic: err = %v, want ErrBadTopic", err)
	}
}

func TestParseStringRoundTripProperty(t *testing.T) {
	// Any topic built from non-empty slash-free segments round trips.
	prop := func(raw []string) bool {
		segs := make([]string, 0, len(raw))
		for _, s := range raw {
			s = strings.Map(func(r rune) rune {
				if r == '/' || r == 0 {
					return 'x'
				}
				return r
			}, s)
			if s == "" || s == Wildcard {
				s = "seg"
			}
			segs = append(segs, s)
		}
		if len(segs) == 0 {
			return true
		}
		tp, err := Build(segs...)
		if err != nil {
			return false
		}
		back, err := Parse(tp.String())
		return err == nil && back.Equal(tp)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDescriptorsAndLiveness(t *testing.T) {
	d := AvailabilityDescriptor("entity-9")
	if string(d) != "Availability/Traces/entity-9" {
		t.Fatalf("descriptor = %q", d)
	}
	q := LivenessQuery("entity-9")
	if q != "/Liveness/entity-9" {
		t.Fatalf("query = %q", q)
	}
	id, ok := EntityFromLivenessQuery(q)
	if !ok || id != "entity-9" {
		t.Fatalf("EntityFromLivenessQuery = %q, %v", id, ok)
	}
	if _, ok := EntityFromLivenessQuery("/Other/entity-9"); ok {
		t.Fatal("accepted non-liveness query")
	}
	if _, ok := EntityFromLivenessQuery("/Liveness/"); ok {
		t.Fatal("accepted empty entity")
	}
	if _, ok := EntityFromLivenessQuery("/Liveness/a/b"); ok {
		t.Fatal("accepted slashed entity")
	}
}

func TestUUIDTopicSegments(t *testing.T) {
	u := ident.NewUUID()
	tp := EntityToBrokerSession(u, ident.NewSessionID())
	if !strings.HasPrefix(tp.String(), "/Constrained/Traces/Broker/Subscribe-Only/Limited/") {
		t.Fatalf("session topic = %q", tp)
	}
	if tp.Len() != 7 {
		t.Fatalf("session topic has %d segments", tp.Len())
	}
}

func TestIsSessionKeyDelivery(t *testing.T) {
	if !IsSessionKeyDelivery(SessionKeyDelivery("hb0")) {
		t.Fatal("canonical SessionKeyDelivery topic not recognized")
	}
	tt := ident.NewUUID()
	bad := []string{
		"/Constrained/Traces/Broker/Publish-Only/System/SessionKeys",             // missing name
		"/Constrained/Traces/Broker/Publish-Only/System/SessionKeys/a/b",         // extra segment
		"/Constrained/Traces/Broker/Subscribe-Only/System/SessionKeys/a",         // wrong direction
		"/Constrained/Traces/Broker/Publish-Only/" + tt.String() + "/AllUpdates", // guarded trace topic
		"/Constrained/Traces/tracker-1/Subscribe-Only/Keys/" + tt.String(),       // tracker key topic
	}
	for _, s := range bad {
		if IsSessionKeyDelivery(MustParse(s)) {
			t.Errorf("IsSessionKeyDelivery(%q) = true, want false", s)
		}
	}
	// A wildcard requester name never reaches the shape check: the
	// topic does not parse.
	if _, err := Parse("/Constrained/Traces/Broker/Publish-Only/System/SessionKeys/*"); err == nil {
		t.Fatal("wildcard SessionKeyDelivery name parsed")
	}
}
