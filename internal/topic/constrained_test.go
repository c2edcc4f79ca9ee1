package topic

import (
	"strings"
	"testing"
	"testing/quick"

	"entitytrace/internal/ident"
)

func TestParseConstrainedFullForm(t *testing.T) {
	tp := MustParse("/Constrained/Traces/Broker/Subscribe-Only/Limited/Trace-Topic")
	c, err := ParseConstrained(tp)
	if err != nil {
		t.Fatal(err)
	}
	if c.EventType != "Traces" {
		t.Errorf("EventType = %q", c.EventType)
	}
	if c.Constrainer != ConstrainerBroker {
		t.Errorf("Constrainer = %q", c.Constrainer)
	}
	if c.Actions != ActionSubscribe {
		t.Errorf("Actions = %v", c.Actions)
	}
	if c.Dist != DistLimited {
		t.Errorf("Dist = %v", c.Dist)
	}
	if len(c.Suffixes) != 1 || c.Suffixes[0] != "Trace-Topic" {
		t.Errorf("Suffixes = %v", c.Suffixes)
	}
}

func TestPaperEquivalenceExample(t *testing.T) {
	// §3.1: /Constrained/Traces/Broker/PublishSubscribe/Limited and
	// /Constrained/Traces/Limited are equivalent topics.
	long, err := ParseConstrained(MustParse("/Constrained/Traces/Broker/PublishSubscribe/Limited"))
	if err != nil {
		t.Fatal(err)
	}
	short, err := ParseConstrained(MustParse("/Constrained/Traces/Limited"))
	if err != nil {
		t.Fatal(err)
	}
	if !long.Equivalent(short) {
		t.Fatalf("paper equivalence example failed: %+v vs %+v", long, short)
	}
}

func TestParseConstrainedDefaults(t *testing.T) {
	c, err := ParseConstrained(MustParse("/Constrained/Traces"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Constrainer != ConstrainerBroker || c.Actions != ActionPublishSubscribe || c.Dist != DistDisseminate {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestParseConstrainedEntityConstrainer(t *testing.T) {
	c, err := ParseConstrained(MustParse("/Constrained/Traces/entity-7/Subscribe-Only/tt/sess"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Constrainer != "entity-7" {
		t.Fatalf("Constrainer = %q", c.Constrainer)
	}
	if c.Actions != ActionSubscribe {
		t.Fatalf("Actions = %v", c.Actions)
	}
	if c.Dist != DistDisseminate {
		t.Fatalf("Dist = %v", c.Dist)
	}
	if len(c.Suffixes) != 2 {
		t.Fatalf("Suffixes = %v", c.Suffixes)
	}
}

func TestParseConstrainedActionSpellings(t *testing.T) {
	for _, spelling := range []string{"Publish", "Publish-Only", "Publish_Only", "PublishOnly"} {
		c, err := ParseConstrained(MustParse("/Constrained/Traces/Broker/" + spelling))
		if err != nil {
			t.Fatal(err)
		}
		if c.Actions != ActionPublish {
			t.Errorf("spelling %q parsed as %v", spelling, c.Actions)
		}
	}
}

func TestParseConstrainedErrors(t *testing.T) {
	if _, err := ParseConstrained(MustParse("/NotConstrained/x")); err == nil {
		t.Fatal("accepted non-constrained topic")
	}
	if _, err := ParseConstrained(MustParse("/Constrained")); err == nil {
		t.Fatal("accepted constrained topic without event type")
	}
}

func TestConstrainedCanonicalRoundTrip(t *testing.T) {
	c := &Constrained{
		EventType:   "Traces",
		Constrainer: "svc-1",
		Actions:     ActionPublish,
		Dist:        DistSuppress,
		Suffixes:    []string{"abc", "def"},
	}
	tp, err := c.Topic()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseConstrained(tp)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equivalent(back) {
		t.Fatalf("canonical round trip: %+v vs %+v", c, back)
	}
}

func TestConstrainedCanonicalRoundTripProperty(t *testing.T) {
	actions := []Action{ActionPublish, ActionSubscribe, ActionPublishSubscribe}
	dists := []Distribution{DistDisseminate, DistSuppress, DistLimited}
	prop := func(aIdx, dIdx uint8, entityConstrainer bool, nSuffix uint8) bool {
		c := &Constrained{
			EventType:   "Traces",
			Constrainer: ConstrainerBroker,
			Actions:     actions[int(aIdx)%len(actions)],
			Dist:        dists[int(dIdx)%len(dists)],
		}
		if entityConstrainer {
			c.Constrainer = "some-entity"
		}
		for i := 0; i < int(nSuffix%4); i++ {
			c.Suffixes = append(c.Suffixes, "sfx")
		}
		tp, err := c.Topic()
		if err != nil {
			return false
		}
		back, err := ParseConstrained(tp)
		return err == nil && c.Equivalent(back)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConstrainedTopicValidation(t *testing.T) {
	c := &Constrained{}
	if _, err := c.Topic(); err == nil {
		t.Fatal("empty constrained rendered")
	}
}

func TestAuthorizationMatrix(t *testing.T) {
	broker := BrokerPrincipal()
	owner := EntityPrincipal("owner")
	other := EntityPrincipal("other")

	cases := []struct {
		topic  string
		p      Principal
		canPub bool
		canSub bool
		descr  string
	}{
		// Broker Publish-Only: broker publishes, everyone subscribes.
		{"/Constrained/Traces/Broker/Publish-Only/tt/AllUpdates", broker, true, true, "broker on pubonly"},
		{"/Constrained/Traces/Broker/Publish-Only/tt/AllUpdates", other, false, true, "entity on pubonly"},
		// Broker Subscribe-Only: broker subscribes, everyone publishes.
		{"/Constrained/Traces/Broker/Subscribe-Only/Registration", broker, true, true, "broker on subonly"},
		{"/Constrained/Traces/Broker/Subscribe-Only/Registration", other, true, false, "entity on subonly"},
		// PublishSubscribe: broker only, nothing for entities.
		{"/Constrained/Traces/Broker/PublishSubscribe/Admin", broker, true, true, "broker on pubsub"},
		{"/Constrained/Traces/Broker/PublishSubscribe/Admin", other, false, false, "entity on pubsub"},
		// Entity constrainer Subscribe-Only: only that entity subscribes.
		{"/Constrained/Traces/owner/Subscribe-Only/tt/sess", owner, true, true, "owner on own subonly"},
		{"/Constrained/Traces/owner/Subscribe-Only/tt/sess", other, true, false, "other on owner subonly"},
		{"/Constrained/Traces/owner/Subscribe-Only/tt/sess", broker, true, false, "broker on owner subonly"},
	}
	for _, tc := range cases {
		c, err := ParseConstrained(MustParse(tc.topic))
		if err != nil {
			t.Fatalf("%s: %v", tc.descr, err)
		}
		if got := c.CanPublish(tc.p); got != tc.canPub {
			t.Errorf("%s: CanPublish = %v, want %v", tc.descr, got, tc.canPub)
		}
		if got := c.CanSubscribe(tc.p); got != tc.canSub {
			t.Errorf("%s: CanSubscribe = %v, want %v", tc.descr, got, tc.canSub)
		}
	}
}

func TestAuthorizeHelper(t *testing.T) {
	plain := MustParse("/public/topic")
	if err := Authorize(plain, EntityPrincipal("anyone"), true); err != nil {
		t.Fatalf("unconstrained publish rejected: %v", err)
	}
	constrained := MustParse("/Constrained/Traces/Broker/Publish-Only/tt/Load")
	if err := Authorize(constrained, EntityPrincipal("x"), true); err == nil {
		t.Fatal("entity publish on broker Publish-Only allowed")
	}
	if err := Authorize(constrained, EntityPrincipal("x"), false); err != nil {
		t.Fatalf("entity subscribe on broker Publish-Only rejected: %v", err)
	}
	if err := Authorize(MustParse("/Constrained"), BrokerPrincipal(), true); err == nil {
		t.Fatal("malformed constrained topic authorized")
	}
}

func TestActionDistributionStrings(t *testing.T) {
	if ActionPublish.String() != "Publish-Only" ||
		ActionSubscribe.String() != "Subscribe-Only" ||
		ActionPublishSubscribe.String() != "PublishSubscribe" {
		t.Fatal("action strings wrong")
	}
	if Action(9).String() == "" || Distribution(9).String() == "" {
		t.Fatal("unknown enum produced empty string")
	}
	if DistDisseminate.String() != "Disseminate" || DistSuppress.String() != "Suppress" || DistLimited.String() != "Limited" {
		t.Fatal("distribution strings wrong")
	}
	if !DistDisseminate.Propagates() || DistSuppress.Propagates() || DistLimited.Propagates() {
		t.Fatal("Propagates wrong")
	}
}

func TestDerivativeTopics(t *testing.T) {
	u := ident.NewUUID()
	cases := []struct {
		tp   Topic
		last string
	}{
		{ChangeNotifications(u), SuffixChangeNotifications},
		{AllUpdates(u), SuffixAllUpdates},
		{StateTransitions(u), SuffixStateTransitions},
		{Load(u), SuffixLoad},
		{NetworkMetrics(u), SuffixNetworkMetrics},
		{GaugeInterest(u), SuffixInterest},
	}
	for _, c := range cases {
		segs := c.tp.Segments()
		if segs[len(segs)-1] != c.last {
			t.Errorf("topic %q does not end in %q", c.tp, c.last)
		}
		if !strings.HasPrefix(c.tp.String(), "/Constrained/Traces/Broker/Publish-Only/") {
			t.Errorf("topic %q lacks Publish-Only prefix", c.tp)
		}
		pc, err := ParseConstrained(c.tp)
		if err != nil {
			t.Errorf("derivative %q does not parse as constrained: %v", c.tp, err)
			continue
		}
		if pc.Actions != ActionPublish {
			t.Errorf("derivative %q parsed actions %v", c.tp, pc.Actions)
		}
	}
	// Gauge-interest response is broker Subscribe-Only (trackers publish).
	resp := GaugeInterestResponse(u)
	pc, err := ParseConstrained(resp)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Actions != ActionSubscribe {
		t.Fatalf("interest response actions = %v", pc.Actions)
	}
}

func TestRegistrationTopic(t *testing.T) {
	c, err := ParseConstrained(Registration())
	if err != nil {
		t.Fatal(err)
	}
	if c.Actions != ActionSubscribe || c.Constrainer != ConstrainerBroker {
		t.Fatalf("registration topic parsed as %+v", c)
	}
	// An entity may publish a registration but not subscribe to others'.
	e := EntityPrincipal("newcomer")
	if !c.CanPublish(e) || c.CanSubscribe(e) {
		t.Fatal("registration topic permissions wrong")
	}
}

func TestBrokerToEntitySessionValidation(t *testing.T) {
	_, err := BrokerToEntitySession("bad/id", ident.NewUUID(), ident.NewSessionID())
	if err == nil {
		t.Fatal("accepted slashed entity ID")
	}
	tp, err := BrokerToEntitySession("good-id", ident.NewUUID(), ident.NewSessionID())
	if err != nil {
		t.Fatal(err)
	}
	c, err := ParseConstrained(tp)
	if err != nil {
		t.Fatal(err)
	}
	if c.Constrainer != "good-id" || c.Actions != ActionSubscribe {
		t.Fatalf("session topic parsed as %+v", c)
	}
}

func TestClassSet(t *testing.T) {
	s := NewClassSet(ClassLoad, ClassAllUpdates)
	if !s.Has(ClassLoad) || !s.Has(ClassAllUpdates) || s.Has(ClassNetworkMetrics) {
		t.Fatal("ClassSet membership wrong")
	}
	s = s.Add(ClassNetworkMetrics)
	if !s.Has(ClassNetworkMetrics) {
		t.Fatal("Add failed")
	}
	if s.Empty() {
		t.Fatal("non-empty set reported Empty")
	}
	if !(ClassSet(0)).Empty() {
		t.Fatal("zero set not Empty")
	}
	union := NewClassSet(ClassLoad).Union(NewClassSet(ClassStateTransitions))
	if !union.Has(ClassLoad) || !union.Has(ClassStateTransitions) {
		t.Fatal("Union failed")
	}
	all := AllClasses()
	if got := len(all.Classes()); got != NumTraceClasses {
		t.Fatalf("AllClasses has %d classes", got)
	}
	for _, c := range AllTraceClasses() {
		if c.String() == "UnknownClass" {
			t.Fatalf("class %d has no name", c)
		}
		if ForClass(ident.NewUUID(), c).IsZero() {
			t.Fatalf("ForClass(%v) returned zero topic", c)
		}
	}
	if TraceClass(99).String() != "UnknownClass" {
		t.Fatal("unknown class string")
	}
}
