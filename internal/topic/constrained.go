package topic

import (
	"fmt"

	"entitytrace/internal/ident"
)

// ConstrainedPrefix is the first segment identifying a constrained topic
// (§3.1: "This keyword at the very beginning of a topic structure
// identifies that topic as a constrained topic").
const ConstrainedPrefix = "Constrained"

// Action is the {Allowed Actions} element of a constrained topic: the
// actions that can ONLY be performed by the constrainer.
type Action int

const (
	// ActionPublishSubscribe (the paper's default) reserves both actions
	// for the constrainer: "no entities are authorized to perform any
	// actions over the corresponding constrained topic".
	ActionPublishSubscribe Action = iota
	// ActionPublish reserves publishing for the constrainer; other
	// entities are allowed to subscribe.
	ActionPublish
	// ActionSubscribe reserves subscribing for the constrainer; no other
	// entity may subscribe, but others may publish (this is how entities
	// send registrations to a broker's Subscribe-Only topic).
	ActionSubscribe
)

// String returns the canonical segment spelling of the action.
func (a Action) String() string {
	switch a {
	case ActionPublish:
		return "Publish-Only"
	case ActionSubscribe:
		return "Subscribe-Only"
	case ActionPublishSubscribe:
		return "PublishSubscribe"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// parseAction recognises the paper's several spellings of each action.
func parseAction(seg string) (Action, bool) {
	switch seg {
	case "Publish", "Publish-Only", "Publish_Only", "PublishOnly":
		return ActionPublish, true
	case "Subscribe", "Subscribe-Only", "Subscribe_Only", "SubscribeOnly":
		return ActionSubscribe, true
	case "PublishSubscribe":
		return ActionPublishSubscribe, true
	default:
		return 0, false
	}
}

// Distribution is the {Distribution} element: restrictions on how the
// constrainer's actions propagate through the broker network.
type Distribution int

const (
	// DistDisseminate (default) propagates normally.
	DistDisseminate Distribution = iota
	// DistSuppress keeps the constrainer's publishes/subscriptions local
	// to its broker.
	DistSuppress
	// DistLimited appears in the paper's examples (e.g.
	// /Constrained/Traces/Broker/Subscribe-Only/Limited/Trace-Topic) but
	// not in its enumerated values; we model it as suppress-like
	// propagation confined to the hosting broker.
	DistLimited
)

// String returns the canonical segment spelling.
func (d Distribution) String() string {
	switch d {
	case DistDisseminate:
		return "Disseminate"
	case DistSuppress:
		return "Suppress"
	case DistLimited:
		return "Limited"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Propagates reports whether actions on the topic are disseminated to
// other brokers in the network.
func (d Distribution) Propagates() bool { return d == DistDisseminate }

func parseDistribution(seg string) (Distribution, bool) {
	switch seg {
	case "Disseminate":
		return DistDisseminate, true
	case "Suppress":
		return DistSuppress, true
	case "Limited":
		return DistLimited, true
	default:
		return 0, false
	}
}

// ConstrainerBroker is the {Constrainer} value naming the broker
// infrastructure (the default) rather than a specific entity.
const ConstrainerBroker = "Broker"

// DefaultEventType is the default {Event Type} element value.
const DefaultEventType = "RealTime"

// EventTypeTraces is the {Event Type} used by the tracing scheme.
const EventTypeTraces = "Traces"

// Constrained is the parsed form of a constrained topic:
//
//	/Constrained/{EventType}/{Constrainer}/{AllowedActions}/{Distribution}/{suffixes...}
//
// Elements may be omitted in the textual form, in which case defaults
// apply ({Constrainer}=Broker, {AllowedActions}=PublishSubscribe,
// {Distribution}=Disseminate); the paper's equivalence example
// (/Constrained/Traces/Broker/PublishSubscribe/Limited ==
// /Constrained/Traces/Limited) is honoured by ParseConstrained.
type Constrained struct {
	EventType   string
	Constrainer string // ConstrainerBroker or an Entity-ID
	Actions     Action
	Dist        Distribution
	Suffixes    []string
}

// constraint is the §3.1 reading of a topic's segments, taken once by
// Parse: whether the topic is constrained, and where its elements sit.
// It holds no strings and packs into one word — every Topic, and so
// every Envelope, carries one — so every Parse pays a few comparisons
// and no allocation for it.
type constraint struct {
	constrained    bool  // the first segment is the Constrained keyword
	valid          bool  // ...and the required event type follows it
	ownConstrainer bool  // segment 2 is an explicit {Constrainer}; Broker otherwise
	suffixes       uint8 // index of the first suffix segment
	actions        uint8 // the Action
	dist           uint8 // the Distribution
}

// readConstraint applies the §3.1 grammar to a topic's segments. The
// EventType element is required (every example in the paper carries it);
// Constrainer, AllowedActions and Distribution may be omitted and default
// as specified (the zero Action and Distribution are those defaults).
// Remaining segments are suffixes.
func readConstraint(segs []string) constraint {
	if len(segs) == 0 || segs[0] != ConstrainedPrefix {
		return constraint{}
	}
	c := constraint{constrained: true}
	if len(segs) < 2 {
		return c
	}
	c.valid = true
	i := 2
	// {Constrainer}: present unless the next segment is recognisably an
	// action or distribution keyword.
	if i < len(segs) {
		if _, isAct := parseAction(segs[i]); !isAct {
			if _, isDist := parseDistribution(segs[i]); !isDist {
				c.ownConstrainer = true
				i++
			}
		}
	}
	// {Allowed Actions}.
	if i < len(segs) {
		if a, ok := parseAction(segs[i]); ok {
			c.actions = uint8(a)
			i++
		}
	}
	// {Distribution}.
	if i < len(segs) {
		if d, ok := parseDistribution(segs[i]); ok {
			c.dist = uint8(d)
			i++
		}
	}
	c.suffixes = uint8(i)
	return c
}

// constrainer returns the {Constrainer} element of a valid constrained
// topic.
func (t Topic) constrainer() string {
	if t.c.ownConstrainer {
		return t.segments[2]
	}
	return ConstrainerBroker
}

// IsConstrained reports whether t begins with the Constrained keyword.
func IsConstrained(t Topic) bool { return t.c.constrained }

// errNoEventType reports a constrained topic without its event type.
var errNoEventType = fmt.Errorf("%w: constrained topic lacks event type", ErrBadTopic)

// ParseConstrained interprets a topic under the §3.1 grammar (see
// readConstraint) and returns its elements.
func ParseConstrained(t Topic) (*Constrained, error) {
	if !IsConstrained(t) {
		return nil, fmt.Errorf("%w: %q is not a constrained topic", ErrBadTopic, t)
	}
	if !t.c.valid {
		return nil, errNoEventType
	}
	return &Constrained{
		EventType:   t.segments[1],
		Constrainer: t.constrainer(),
		Actions:     Action(t.c.actions),
		Dist:        Distribution(t.c.dist),
		Suffixes:    append([]string(nil), t.segments[t.c.suffixes:]...),
	}, nil
}

// Propagates reports whether subscriptions and publishes on t travel
// between brokers: every unconstrained topic does, a constrained one only
// when it is well formed and its distribution disseminates.
func Propagates(t Topic) bool {
	return !t.c.constrained || t.c.valid && Distribution(t.c.dist).Propagates()
}

// Topic renders the constrained topic in fully explicit canonical form.
func (c *Constrained) Topic() (Topic, error) {
	if c.EventType == "" || c.Constrainer == "" {
		return Topic{}, fmt.Errorf("%w: constrained topic needs event type and constrainer", ErrBadTopic)
	}
	segs := []string{ConstrainedPrefix, c.EventType, c.Constrainer, c.Actions.String(), c.Dist.String()}
	segs = append(segs, c.Suffixes...)
	return Build(segs...)
}

// Equivalent reports whether two constrained topics denote the same
// canonical structure (the paper's topic-equivalence relation).
func (c *Constrained) Equivalent(other *Constrained) bool {
	if c.EventType != other.EventType || c.Constrainer != other.Constrainer ||
		c.Actions != other.Actions || c.Dist != other.Dist ||
		len(c.Suffixes) != len(other.Suffixes) {
		return false
	}
	for i := range c.Suffixes {
		if c.Suffixes[i] != other.Suffixes[i] {
			return false
		}
	}
	return true
}

// Principal identifies an actor attempting an action on a topic: either a
// broker (trusted infrastructure node) or a client entity.
type Principal struct {
	IsBroker bool
	Entity   ident.EntityID
}

// BrokerPrincipal is the principal for broker infrastructure nodes.
func BrokerPrincipal() Principal { return Principal{IsBroker: true} }

// EntityPrincipal is the principal for a client entity.
func EntityPrincipal(id ident.EntityID) Principal { return Principal{Entity: id} }

// permits reports whether p may perform the action (publish or
// subscribe) on a constrained topic with the given allowed actions and
// constrainer: an action the constrainer reserved is the constrainer's
// alone.
func permits(actions Action, constrainer string, p Principal, publish bool) bool {
	reserved := actions == ActionPublishSubscribe ||
		publish && actions == ActionPublish || !publish && actions == ActionSubscribe
	if !reserved {
		return true
	}
	if constrainer == ConstrainerBroker {
		return p.IsBroker
	}
	return !p.IsBroker && string(p.Entity) == constrainer
}

// CanPublish reports whether p may publish on the constrained topic.
// Publishing is reserved for the constrainer when the allowed actions
// include Publish.
func (c *Constrained) CanPublish(p Principal) bool {
	return permits(c.Actions, c.Constrainer, p, true)
}

// CanSubscribe reports whether p may subscribe to the constrained topic.
// Subscribing is reserved for the constrainer when the allowed actions
// include Subscribe.
func (c *Constrained) CanSubscribe(p Principal) bool {
	return permits(c.Actions, c.Constrainer, p, false)
}

// Authorize checks an action on any topic: constrained topics are
// enforced, unconstrained topics permit everything. publish selects
// between the publish and subscribe checks. It reads the §3.1 elements
// Parse recorded, so it neither re-parses nor allocates unless it
// refuses.
func Authorize(t Topic, p Principal, publish bool) error {
	if !IsConstrained(t) {
		return nil
	}
	if !t.c.valid {
		return errNoEventType
	}
	if permits(Action(t.c.actions), t.constrainer(), p, publish) {
		return nil
	}
	verb := "subscribe to"
	if publish {
		verb = "publish on"
	}
	return fmt.Errorf("topic: principal %+v may not %s constrained topic %q", p, verb, t)
}
