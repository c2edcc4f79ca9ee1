package entitytrace

import (
	"testing"

	"entitytrace/internal/broker"
	"entitytrace/internal/harness"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/topic"
)

// TestSessionKeyRequestWildcardDeliveryRefused: a SESSION_KEY_REQUEST
// may name its own delivery topic, but "*" is a reserved topic segment,
// so a delivery topic ending in /SessionKeys/* is malformed. The hosting
// broker refuses it as bad_delivery_topic before any credential work —
// the request carries no certificate at all — and seals and publishes
// nothing.
func TestSessionKeyRequestWildcardDeliveryRefused(t *testing.T) {
	rejTopic := obs.Default.Counter(obs.WithLabel("session_key_requests_rejected_total", "reason", "bad_delivery_topic"))
	rejCred := obs.Default.Counter(obs.WithLabel("session_key_requests_rejected_total", "reason", "bad_credential"))
	deliveries := obs.Default.Counter("session_key_deliveries_total")

	tb, err := harness.New(harness.Options{Brokers: 1, SessionKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	ent, err := tb.StartEntity("wild-entity", 0)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := broker.Connect(tb.Transport(), tb.Addrs[0], "wild-requester")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	topic0, cred0, delivered0 := rejTopic.Value(), rejCred.Value(), deliveries.Value()
	tt := ent.TraceTopic()
	req := &message.SessionKeyRequest{
		TraceTopic:    tt,
		Requester:     "wild-requester",
		DeliveryTopic: "/Constrained/Traces/Broker/Publish-Only/System/SessionKeys/" + topic.Wildcard,
	}
	env := message.New(message.TypeSessionKeyRequest, topic.SessionKeyRequests(tt), cl.Entity(), req.Marshal())
	if err := cl.Publish(env); err != nil {
		t.Fatal(err)
	}
	waitSession(t, "wildcard delivery topic refused", func() bool {
		return rejTopic.Value() > topic0
	})
	// The refusal returns from the request handler, so no response can
	// still be on its way.
	if d := deliveries.Value() - delivered0; d != 0 {
		t.Fatalf("%d session-key responses published", d)
	}
	if c := rejCred.Value() - cred0; c != 0 {
		t.Fatalf("credential checked %d times before the delivery topic was refused", c)
	}
}
