package topic

import (
	"entitytrace/internal/ident"
)

// This file builds the concrete topics the tracing scheme uses: the
// registration topic (§3.2), the per-session topics, and the derivative
// topics of Table 2 on which brokers publish the different trace types.

// Suffix segments used by the derivative topics (Table 2) and protocol
// topics (§3.2, §3.5).
const (
	SuffixRegistration        = "Registration"
	SuffixChangeNotifications = "ChangeNotifications"
	SuffixAllUpdates          = "AllUpdates"
	SuffixStateTransitions    = "StateTransitions"
	SuffixLoad                = "Load"
	SuffixNetworkMetrics      = "NetworkMetrics"
	SuffixInterest            = "Interest"
	SuffixSystem              = "System"
	SuffixSessionKeys         = "SessionKeys"
	SuffixFabric              = "Fabric"
	SuffixTelemetry           = "Telemetry"
)

// SystemFabric returns the constrained topic carrying broker-fabric
// membership gossip (PROTOCOL.md §3.9):
// /Constrained/Traces/Broker/Publish-Only/System/Fabric. The fabric
// reports on itself with its own derivative-topic mechanism: Publish-Only
// with the broker as constrainer means only brokers may gossip while
// anyone may subscribe, the default Disseminate distribution
// propagates exchanges across whatever links exist (anti-entropy
// convergence even when two brokers are not directly linked), and the
// non-UUID "System" segment keeps it outside the per-trace-topic token
// guard and outside the sharded keyspace.
func SystemFabric() Topic {
	return MustParse("/Constrained/Traces/Broker/Publish-Only/" + SuffixSystem + "/" + SuffixFabric)
}

// SystemTelemetry returns the constrained topic carrying per-broker
// metric snapshots (PROTOCOL.md §3.10):
// /Constrained/Traces/Broker/Publish-Only/System/Telemetry. It mirrors
// SystemFabric(): Publish-Only with the broker as constrainer means
// only brokers may publish telemetry while anyone may subscribe, the
// default Disseminate distribution propagates snapshots network-wide
// (one `tracectl top` subscription anywhere assembles the whole
// fleet), and the non-UUID "System" segment keeps the topic outside
// the per-trace-topic token guard and outside the sharded keyspace.
func SystemTelemetry() Topic {
	return MustParse("/Constrained/Traces/Broker/Publish-Only/" + SuffixSystem + "/" + SuffixTelemetry)
}

// Registration returns the constrained topic on which trace registration
// messages are issued (§3.2). The broker is the only subscriber;
// entities publish to it. The Suppress distribution (§3.1: "in the case
// of a Subscribe_Only action combined with Suppress distribution, the
// constrainer's subscriptions are not propagated within the broker
// network") is essential here: every broker subscribes locally, and
// without suppression a registration would reach every trace manager in
// the network and create phantom sessions at brokers the entity never
// connected to.
func Registration() Topic {
	return MustParse("/Constrained/Traces/Broker/Subscribe-Only/Suppress/Registration")
}

// EntityToBrokerSession returns the topic the traced entity publishes its
// messages over and the broker subscribes to:
// /Constrained/Traces/Broker/Subscribe-Only/Limited/<TraceTopic>/<SessionID>
// (§3.2, §3.3).
func EntityToBrokerSession(traceTopic ident.UUID, session ident.SessionID) Topic {
	return MustParse("/Constrained/Traces/Broker/Subscribe-Only/Limited/" +
		traceTopic.String() + "/" + session.String())
}

// BrokerToEntitySession returns the topic the broker uses to reach the
// traced entity (pings, control):
// /Constrained/Traces/<Entity-ID>/Subscribe-Only/<TraceTopic>/<SessionID>
// (§3.2, §3.3). The entity is the constrainer, so only it may subscribe.
func BrokerToEntitySession(entity ident.EntityID, traceTopic ident.UUID, session ident.SessionID) (Topic, error) {
	if err := entity.Validate(); err != nil {
		return Topic{}, err
	}
	return Parse("/Constrained/Traces/" + string(entity) + "/Subscribe-Only/" +
		traceTopic.String() + "/" + session.String())
}

// derivative builds a broker Publish-Only derivative topic with the given
// final suffix: /Constrained/Traces/Broker/Publish-Only/<TraceTopic>/<sfx>
// (Table 2).
func derivative(traceTopic ident.UUID, sfx string) Topic {
	return MustParse("/Constrained/Traces/Broker/Publish-Only/" + traceTopic.String() + "/" + sfx)
}

// ChangeNotifications carries JOIN, FAILURE_SUSPICION, FAILED, DISCONNECT
// and REVERTING_TO_SILENT_MODE traces.
func ChangeNotifications(traceTopic ident.UUID) Topic {
	return derivative(traceTopic, SuffixChangeNotifications)
}

// AllUpdates carries ALLS_WELL heartbeats issued on every ping response.
func AllUpdates(traceTopic ident.UUID) Topic {
	return derivative(traceTopic, SuffixAllUpdates)
}

// StateTransitions carries INITIALIZING, RECOVERING, READY and SHUTDOWN
// state information reported by the traced entity.
func StateTransitions(traceTopic ident.UUID) Topic {
	return derivative(traceTopic, SuffixStateTransitions)
}

// Load carries LOAD_INFORMATION traces (CPU, memory, workload).
func Load(traceTopic ident.UUID) Topic {
	return derivative(traceTopic, SuffixLoad)
}

// NetworkMetrics carries NETWORK_METRICS traces (loss rates, transit
// delay, bandwidth).
func NetworkMetrics(traceTopic ident.UUID) Topic {
	return derivative(traceTopic, SuffixNetworkMetrics)
}

// GaugeInterest returns the topic on which the broker publishes
// GUAGE_INTEREST probes: /Constrained/Traces/Broker/Publish-Only/
// <TraceTopic>/Interest (§3.5). (The paper's Table 2 also lists a
// /Traces/<topic>/Request-Response form; the §3.5 prose topic is used.)
func GaugeInterest(traceTopic ident.UUID) Topic {
	return derivative(traceTopic, SuffixInterest)
}

// GaugeInterestResponse returns the topic trackers answer on:
// /Constrained/Traces/Broker/Subscribe-Only/<TraceTopic>/Interest (§3.5).
func GaugeInterestResponse(traceTopic ident.UUID) Topic {
	return MustParse("/Constrained/Traces/Broker/Subscribe-Only/" + traceTopic.String() + "/" + SuffixInterest)
}

// SessionKeyRequests returns the topic on which verifiers ask the
// publisher's hosting broker for sealed §6.3 session parameters:
// /Constrained/Traces/Broker/Subscribe-Only/<TraceTopic>/SessionKeys.
// Subscribe-Only with the broker as constrainer mirrors the
// gauge-interest response topic: only brokers subscribe (the hosting
// broker, locally), while any principal — an intermediate broker or a
// tracker — may publish a request, and the default Disseminate
// distribution carries the request across the fabric to wherever the
// session lives.
func SessionKeyRequests(traceTopic ident.UUID) Topic {
	return MustParse("/Constrained/Traces/Broker/Subscribe-Only/" + traceTopic.String() + "/" + SuffixSessionKeys)
}

// SessionKeyDelivery returns the topic on which a requesting broker
// receives sealed session parameters:
// /Constrained/Traces/Broker/Publish-Only/System/SessionKeys/<name>.
// Publish-Only with the broker as constrainer means only brokers may
// publish responses; the "System" segment is deliberately not a UUID, so
// the topic falls outside the per-trace-topic token guard — the
// response envelope instead carries the publisher's token and RSA
// delegate signature, which the requester verifies in full before
// trusting the sealed key (the one RSA verification §6.3 amortizes).
// Trackers do not use this topic: their responses arrive on the
// key-delivery topic they announce in interest responses.
func SessionKeyDelivery(name string) Topic {
	return MustParse("/Constrained/Traces/Broker/Publish-Only/" + SuffixSystem + "/" + SuffixSessionKeys + "/" + name)
}

// IsSessionKeyDelivery reports whether tp has the exact shape of a
// SessionKeyDelivery topic. Hosting brokers validate a broker
// requester's DeliveryTopic against this before publishing a
// SESSION_KEY_RESPONSE: a requester-chosen topic of any other shape —
// in particular a per-trace-topic constrained topic whose token guard
// would reject the response and score a violation against the
// responding broker — is refused.
func IsSessionKeyDelivery(tp Topic) bool {
	s := tp.segments
	return len(s) == 7 &&
		s[0] == "Constrained" && s[1] == "Traces" && s[2] == "Broker" &&
		s[3] == "Publish-Only" && s[4] == SuffixSystem && s[5] == SuffixSessionKeys
}

// IsTraceDerivative reports whether tp has the exact shape of a
// per-trace-topic derivative class topic (Table 2):
// /Constrained/Traces/Broker/Publish-Only/<TraceTopic-UUID>/<class>.
// These are the streams the availability ledger is built from, and the
// default set a broker's durable log persists before fan-out — the
// system topics (non-UUID "System" segment) and transient interest
// probes deliberately fall outside it.
func IsTraceDerivative(tp Topic) bool {
	_, _, ok := DerivativeClass(tp)
	return ok
}

// DerivativeClass reports whether tp is a per-trace-topic derivative
// class topic (IsTraceDerivative) and returns its trace topic and class.
func DerivativeClass(tp Topic) (ident.UUID, TraceClass, bool) {
	s := tp.segments
	if len(s) != 6 ||
		s[0] != "Constrained" || s[1] != "Traces" || s[2] != "Broker" || s[3] != "Publish-Only" {
		return ident.Nil, 0, false
	}
	id, err := ident.ParseUUID(s[4])
	if err != nil {
		return ident.Nil, 0, false
	}
	for c := TraceClass(0); c < numTraceClasses; c++ {
		if s[5] == c.String() {
			return id, c, true
		}
	}
	return ident.Nil, 0, false
}

// TraceTopicOf reports whether tp is a broker Publish-Only topic of a
// trace topic — a Table 2 derivative under any spelling the §3.1
// grammar allows, with the trace-topic UUID as first suffix and at least
// one suffix after it — and extracts that UUID. These are the topics the
// §4.3 token guard enforces.
func TraceTopicOf(tp Topic) (ident.UUID, bool) {
	c := tp.c
	if !c.valid || tp.segments[1] != EventTypeTraces || tp.constrainer() != ConstrainerBroker ||
		Action(c.actions) != ActionPublish || len(tp.segments)-int(c.suffixes) < 2 {
		return ident.Nil, false
	}
	id, err := ident.ParseUUID(tp.segments[c.suffixes])
	if err != nil {
		return ident.Nil, false
	}
	return id, true
}

// TraceClass names a selectable category of trace information a tracker
// may register interest in (§3.5: "any combination of change
// notifications, all-updates, state transitions, load information or
// network metrics").
type TraceClass int

const (
	ClassChangeNotifications TraceClass = iota
	ClassAllUpdates
	ClassStateTransitions
	ClassLoad
	ClassNetworkMetrics
	numTraceClasses
)

// NumTraceClasses is the number of selectable trace classes.
const NumTraceClasses = int(numTraceClasses)

// String returns the class's topic suffix.
func (tc TraceClass) String() string {
	switch tc {
	case ClassChangeNotifications:
		return SuffixChangeNotifications
	case ClassAllUpdates:
		return SuffixAllUpdates
	case ClassStateTransitions:
		return SuffixStateTransitions
	case ClassLoad:
		return SuffixLoad
	case ClassNetworkMetrics:
		return SuffixNetworkMetrics
	default:
		return "UnknownClass"
	}
}

// AllTraceClasses lists every selectable class.
func AllTraceClasses() []TraceClass {
	return []TraceClass{
		ClassChangeNotifications, ClassAllUpdates, ClassStateTransitions,
		ClassLoad, ClassNetworkMetrics,
	}
}

// ForClass returns the derivative topic carrying the given class of
// traces for traceTopic.
func ForClass(traceTopic ident.UUID, tc TraceClass) Topic {
	return derivative(traceTopic, tc.String())
}

// ClassSet is a bitmask of trace classes, used in gauge-interest
// responses.
type ClassSet uint8

// NewClassSet builds a set from individual classes.
func NewClassSet(classes ...TraceClass) ClassSet {
	var s ClassSet
	for _, c := range classes {
		s |= 1 << uint(c)
	}
	return s
}

// AllClasses is the set of every trace class.
func AllClasses() ClassSet { return NewClassSet(AllTraceClasses()...) }

// Has reports membership.
func (s ClassSet) Has(c TraceClass) bool { return s&(1<<uint(c)) != 0 }

// Add returns the set with c included.
func (s ClassSet) Add(c TraceClass) ClassSet { return s | 1<<uint(c) }

// Union merges two sets.
func (s ClassSet) Union(other ClassSet) ClassSet { return s | other }

// Empty reports whether no class is selected.
func (s ClassSet) Empty() bool { return s == 0 }

// Classes expands the set into a slice.
func (s ClassSet) Classes() []TraceClass {
	var out []TraceClass
	for _, c := range AllTraceClasses() {
		if s.Has(c) {
			out = append(out, c)
		}
	}
	return out
}
