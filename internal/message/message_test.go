package message

import (
	"bytes"
	"testing"
	"testing/quick"

	"entitytrace/internal/ident"
	"entitytrace/internal/secure"
	"entitytrace/internal/topic"
)

var testPair *secure.KeyPair

func init() {
	var err error
	testPair, err = secure.GenerateKeyPair(secure.PaperRSABits)
	if err != nil {
		panic(err)
	}
}

func sampleEnvelope() *Envelope {
	e := New(TraceAllsWell, topic.MustParse("/Constrained/Traces/Broker/Publish-Only/tt/AllUpdates"),
		"entity-1", []byte("payload"))
	e.SeqNum = 7
	e.RequestID = ident.NewRequestID()
	e.Token = []byte("token-bytes")
	e.Flags = FlagSecured
	return e
}

func TestEnvelopeRoundTrip(t *testing.T) {
	e := sampleEnvelope()
	back, err := Unmarshal(e.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != e.ID || back.Type != e.Type || !back.Topic.Equal(e.Topic) ||
		back.Source != e.Source || back.Timestamp != e.Timestamp ||
		back.SeqNum != e.SeqNum || back.RequestID != e.RequestID ||
		back.TTL != e.TTL || back.Flags != e.Flags ||
		!bytes.Equal(back.Payload, e.Payload) || !bytes.Equal(back.Token, e.Token) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, e)
	}
}

func TestEnvelopeRoundTripProperty(t *testing.T) {
	prop := func(payload, token []byte, seq uint64, ttl uint8, flags uint16) bool {
		e := New(TypeData, topic.MustParse("/a/b"), "src", payload)
		e.SeqNum = seq
		e.TTL = ttl
		e.Flags = flags
		e.Token = token
		back, err := Unmarshal(e.Marshal())
		return err == nil && back.SeqNum == seq && back.TTL == ttl &&
			back.Flags == flags && bytes.Equal(back.Payload, payload) &&
			bytes.Equal(back.Token, token)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEnvelopeSignVerify(t *testing.T) {
	e := sampleEnvelope()
	signer, _ := secure.NewSigner(testPair.Private, secure.SHA1)
	if err := e.Sign(signer); err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(e.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := back.VerifySignature(testPair.Public, secure.SHA1); err != nil {
		t.Fatalf("verify after round trip: %v", err)
	}
}

func TestEnvelopeSignatureDetectsTamper(t *testing.T) {
	e := sampleEnvelope()
	signer, _ := secure.NewSigner(testPair.Private, secure.SHA1)
	if err := e.Sign(signer); err != nil {
		t.Fatal(err)
	}
	e.Payload = []byte("tampered")
	if err := e.VerifySignature(testPair.Public, secure.SHA1); err == nil {
		t.Fatal("tampered envelope verified")
	}
}

func TestEnvelopeUnsignedVerifyFails(t *testing.T) {
	e := sampleEnvelope()
	if err := e.VerifySignature(testPair.Public, secure.SHA1); err == nil {
		t.Fatal("unsigned envelope verified")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	cases := [][]byte{nil, {}, {1}, []byte("random junk that is not an envelope")}
	for _, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("Unmarshal(%d bytes) succeeded", len(c))
		}
	}
}

func TestUnmarshalWrongVersion(t *testing.T) {
	e := sampleEnvelope()
	wire := e.Marshal()
	wire[0] = 99
	if _, err := Unmarshal(wire); err == nil {
		t.Fatal("accepted wrong version")
	}
}

func TestUnmarshalTrailingBytes(t *testing.T) {
	wire := append(sampleEnvelope().Marshal(), 0xff)
	if _, err := Unmarshal(wire); err == nil {
		t.Fatal("accepted trailing bytes")
	}
}

func TestUnmarshalBadTopic(t *testing.T) {
	e := sampleEnvelope()
	e.Topic = topic.Topic{} // zero topic serializes as ""
	if _, err := Unmarshal(e.Marshal()); err == nil {
		t.Fatal("accepted envelope with invalid topic")
	}
}

func TestUnmarshalUnknownType(t *testing.T) {
	e := sampleEnvelope()
	e.Type = lastType + 5
	if _, err := Unmarshal(e.Marshal()); err == nil {
		t.Fatal("accepted unknown message type")
	}
}

func TestUnmarshalHostileLength(t *testing.T) {
	// Craft an envelope whose payload length prefix claims 1 GiB.
	e := sampleEnvelope()
	e.Payload = nil
	wire := e.Marshal()
	// Find the payload length field by re-marshaling with a marker.
	// Simpler: corrupt a length prefix near the end (token length).
	wire[len(wire)-4-len(e.Signature)-4-len(e.Token)-4] = 0xff
	if _, err := Unmarshal(wire); err == nil {
		t.Fatal("accepted hostile length prefix")
	}
}

func TestClone(t *testing.T) {
	e := sampleEnvelope()
	e.Signature = []byte("sig")
	c := e.Clone()
	c.Payload[0] = 'X'
	c.TTL--
	if e.Payload[0] == 'X' || e.TTL == c.TTL {
		t.Fatal("Clone shares state with original")
	}
}

func TestTypePredicates(t *testing.T) {
	if !TraceInitializing.IsTrace() || !TraceNetworkMetrics.IsTrace() {
		t.Fatal("trace types not IsTrace")
	}
	if TypePing.IsTrace() || TypeRegistration.IsTrace() {
		t.Fatal("protocol types reported IsTrace")
	}
	if !TraceInitializing.Valid() || !TypeData.Valid() {
		t.Fatal("valid types reported invalid")
	}
	if (lastType + 1).Valid() {
		t.Fatal("out-of-range type reported valid")
	}
}

func TestTypeStrings(t *testing.T) {
	known := map[Type]string{
		TraceAllsWell:              "ALLS_WELL",
		TraceGaugeInterest:         "GUAGE_INTEREST",
		TraceFailureSuspicion:      "FAILURE_SUSPICION",
		TraceFailed:                "FAILED",
		TraceJoin:                  "JOIN",
		TraceRevertingToSilentMode: "REVERTING_TO_SILENT_MODE",
		TraceLoadInformation:       "LOAD_INFORMATION",
		TraceNetworkMetrics:        "NETWORK_METRICS",
		TypePing:                   "PING",
	}
	for ty, want := range known {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", uint16(ty), got, want)
		}
	}
	if Type(9999).String() == "" {
		t.Fatal("unknown type produced empty string")
	}
}

// TestTypeWireValues pins the numeric value of every message type: the
// values are wire format and are persisted inside durable-log records,
// so retiring a type must leave its slot reserved, never renumber.
func TestTypeWireValues(t *testing.T) {
	want := []Type{
		0: TypeData, 1: TypeRegistration, 2: TypeRegistrationResponse, 3: TypePing,
		4: TypePingResponse, 5: TypeInterestResponse, 6: TypeKeyDelivery, 7: TypeStateReport,
		8: TypeLoadReport, 9: TypeError, 10: TypeDelegation, 11: TypeSilentMode, 12: TypeResume,
		13: TraceInitializing, 14: TraceRecovering, 15: TraceReady, 16: TraceShutdown,
		17: TraceFailureSuspicion, 18: TraceFailed, 19: TraceDisconnect, 20: TraceGaugeInterest,
		21: TraceJoin, 22: TraceRevertingToSilentMode, 23: TraceAllsWell, 24: TraceLoadInformation,
		25: TraceNetworkMetrics, 26: traceRetiredHealth, 27: traceRetiredAvailDigest,
		28: TypeSessionKeyRequest, 29: TypeSessionKeyResponse, 30: TypeFabricGossip,
		31: TraceTelemetrySnapshot,
	}
	if int(lastType) != len(want) {
		t.Fatalf("lastType = %d, want %d: a type was added or removed without pinning it here", lastType, len(want))
	}
	for v, ty := range want {
		if int(ty) != v {
			t.Errorf("%s = %d, want %d", ty, ty, v)
		}
	}
	if !traceRetiredHealth.Valid() || traceRetiredHealth.String() != "BROKER_HEALTH(retired)" {
		t.Fatalf("retired slot: Valid=%v String=%q", traceRetiredHealth.Valid(), traceRetiredHealth)
	}
	if !traceRetiredAvailDigest.Valid() || traceRetiredAvailDigest.String() != "AVAILABILITY_DIGEST(retired)" {
		t.Fatalf("retired slot: Valid=%v String=%q", traceRetiredAvailDigest.Valid(), traceRetiredAvailDigest)
	}
}

func TestEntityStateStringsAndTraceTypes(t *testing.T) {
	cases := map[EntityState]struct {
		str string
		tt  Type
	}{
		StateInitializing: {"INITIALIZING", TraceInitializing},
		StateRecovering:   {"RECOVERING", TraceRecovering},
		StateReady:        {"READY", TraceReady},
		StateShutdown:     {"SHUTDOWN", TraceShutdown},
	}
	for st, want := range cases {
		if st.String() != want.str {
			t.Errorf("%d.String() = %q", st, st.String())
		}
		if st.TraceType() != want.tt {
			t.Errorf("%v.TraceType() = %v", st, st.TraceType())
		}
		if !st.Valid() {
			t.Errorf("%v not Valid", st)
		}
	}
	if EntityState(9).Valid() {
		t.Fatal("invalid state reported valid")
	}
}

func TestRegistrationRoundTrip(t *testing.T) {
	rg := &Registration{
		Entity:           "svc",
		CertDER:          []byte{1, 2, 3},
		Advertisement:    []byte{4, 5},
		SecureTraces:     true,
		SymmetricChannel: true,
	}
	back, err := UnmarshalRegistration(rg.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Entity != rg.Entity || !bytes.Equal(back.CertDER, rg.CertDER) ||
		!bytes.Equal(back.Advertisement, rg.Advertisement) ||
		back.SecureTraces != rg.SecureTraces ||
		back.SymmetricChannel != rg.SymmetricChannel {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, rg)
	}
	if _, err := UnmarshalRegistration([]byte{1, 2}); err == nil {
		t.Fatal("accepted truncated registration")
	}
}

func TestRegistrationResponseRoundTrip(t *testing.T) {
	rr := &RegistrationResponse{RequestID: ident.NewRequestID(), SessionID: ident.NewSessionID(), BrokerCert: []byte{5, 6}}
	back, err := UnmarshalRegistrationResponse(rr.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.RequestID != rr.RequestID || back.SessionID != rr.SessionID || !bytes.Equal(back.BrokerCert, rr.BrokerCert) {
		t.Fatalf("round trip mismatch")
	}
	if _, err := UnmarshalRegistrationResponse([]byte{1}); err == nil {
		t.Fatal("accepted truncated response")
	}
}

func TestPingRoundTrip(t *testing.T) {
	p := &Ping{Number: 42, BrokerTimestamp: 12345}
	back, err := UnmarshalPing(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *back != *p {
		t.Fatal("round trip mismatch")
	}
	if _, err := UnmarshalPing(nil); err == nil {
		t.Fatal("accepted empty ping")
	}
}

func TestPingResponseRoundTrip(t *testing.T) {
	p := &PingResponse{Number: 42, BrokerTimestamp: 9, EntityTimestamp: 10, State: StateReady}
	back, err := UnmarshalPingResponse(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *back != *p {
		t.Fatal("round trip mismatch")
	}
	bad := &PingResponse{State: EntityState(9)}
	if _, err := UnmarshalPingResponse(bad.Marshal()); err == nil {
		t.Fatal("accepted invalid state")
	}
}

func TestStateReportRoundTrip(t *testing.T) {
	s := &StateReport{From: StateInitializing, To: StateReady, At: 77}
	back, err := UnmarshalStateReport(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *back != *s {
		t.Fatal("round trip mismatch")
	}
	bad := &StateReport{From: EntityState(7), To: StateReady}
	if _, err := UnmarshalStateReport(bad.Marshal()); err == nil {
		t.Fatal("accepted invalid transition")
	}
}

func TestLoadReportRoundTrip(t *testing.T) {
	l := &LoadReport{CPUPercent: 42.5, MemoryUsedBytes: 1 << 30, MemoryTotalBytes: 4 << 30, Workload: 0.75, At: 5}
	back, err := UnmarshalLoadReport(l.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *back != *l {
		t.Fatal("round trip mismatch")
	}
	if _, err := UnmarshalLoadReport([]byte{1}); err == nil {
		t.Fatal("accepted truncated load report")
	}
}

func TestNetworkReportRoundTrip(t *testing.T) {
	n := &NetworkReport{LossRate: 0.01, MeanRTTMillis: 1.9, OutOfOrderRate: 0.002, BandwidthBps: 1e8, SampleCount: 10, At: 3}
	back, err := UnmarshalNetworkReport(n.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *back != *n {
		t.Fatal("round trip mismatch")
	}
}

func TestGaugeInterestProbeRoundTrip(t *testing.T) {
	g := &GaugeInterestProbe{TraceTopic: ident.NewUUID(), Secured: true, ResponseTopic: "/x/y"}
	back, err := UnmarshalGaugeInterestProbe(g.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *back != *g {
		t.Fatal("round trip mismatch")
	}
}

func TestInterestResponseRoundTrip(t *testing.T) {
	ir := &InterestResponse{
		Tracker:          "tracker-1",
		TraceTopic:       ident.NewUUID(),
		Classes:          topic.NewClassSet(topic.ClassLoad, topic.ClassAllUpdates),
		CertDER:          []byte{9, 9},
		KeyDeliveryTopic: "/keys/t1",
	}
	back, err := UnmarshalInterestResponse(ir.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Tracker != ir.Tracker || back.TraceTopic != ir.TraceTopic ||
		back.Classes != ir.Classes || !bytes.Equal(back.CertDER, ir.CertDER) ||
		back.KeyDeliveryTopic != ir.KeyDeliveryTopic {
		t.Fatal("round trip mismatch")
	}
}

func TestTraceKeyRoundTrip(t *testing.T) {
	tk := &TraceKey{Purpose: PurposeTrace, Key: []byte("0123456789abcdef01234567"), Algorithm: "AES-192-CBC", Padding: "PKCS7"}
	back, err := UnmarshalTraceKey(tk.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Purpose != tk.Purpose || !bytes.Equal(back.Key, tk.Key) || back.Algorithm != tk.Algorithm || back.Padding != tk.Padding {
		t.Fatal("round trip mismatch")
	}
	bad := &TraceKey{Purpose: 9, Key: []byte{1}}
	if _, err := UnmarshalTraceKey(bad.Marshal()); err == nil {
		t.Fatal("accepted unknown key purpose")
	}
}

func TestDelegationRoundTrip(t *testing.T) {
	d := &Delegation{TokenBytes: []byte{1, 2, 3}, DelegatePrivDER: []byte{4, 5}}
	back, err := UnmarshalDelegation(d.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.TokenBytes, d.TokenBytes) || !bytes.Equal(back.DelegatePrivDER, d.DelegatePrivDER) {
		t.Fatal("round trip mismatch")
	}
	if _, err := UnmarshalDelegation([]byte{1}); err == nil {
		t.Fatal("accepted truncated delegation")
	}
}

func TestTraceEventRoundTrip(t *testing.T) {
	te := &TraceEvent{Entity: "e", TraceTopic: ident.NewUUID(), Detail: "suspected", Body: []byte{1}}
	back, err := UnmarshalTraceEvent(te.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Entity != te.Entity || back.TraceTopic != te.TraceTopic ||
		back.Detail != te.Detail || !bytes.Equal(back.Body, te.Body) {
		t.Fatal("round trip mismatch")
	}
}

func TestErrorReportRoundTrip(t *testing.T) {
	er := &ErrorReport{Code: ErrCodeBadSignature, Detail: "verification failed"}
	back, err := UnmarshalErrorReport(er.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *back != *er {
		t.Fatal("round trip mismatch")
	}
}

func TestPayloadPropertyRoundTrips(t *testing.T) {
	if err := quick.Check(func(num uint64, ts int64) bool {
		p := &Ping{Number: num, BrokerTimestamp: ts}
		back, err := UnmarshalPing(p.Marshal())
		return err == nil && *back == *p
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(cpu, wl float64, mu, mt uint64, at int64) bool {
		l := &LoadReport{CPUPercent: cpu, MemoryUsedBytes: mu, MemoryTotalBytes: mt, Workload: wl, At: at}
		back, err := UnmarshalLoadReport(l.Marshal())
		if err != nil {
			return false
		}
		// NaN never compares equal; compare bit patterns via re-marshal.
		return bytes.Equal(back.Marshal(), l.Marshal())
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSignatureSurvivesTTLDecrement pins the routing-critical property
// that TTL is excluded from the signed bytes: a broker may decrement TTL
// when forwarding without invalidating the publisher's signature.
func TestSignatureSurvivesTTLDecrement(t *testing.T) {
	signer, _ := secure.NewSigner(testPair.Private, secure.SHA1)
	if err := quick.Check(func(payload []byte, ttl uint8) bool {
		e := New(TraceAllsWell, topic.MustParse("/Constrained/Traces/Broker/Publish-Only/tt/AllUpdates"), "", payload)
		e.TTL = ttl
		if err := e.Sign(signer); err != nil {
			return false
		}
		// Forwarding: clone, decrement, re-marshal, re-parse — as the
		// broker network does at each hop.
		fwd := e.Clone()
		if fwd.TTL > 0 {
			fwd.TTL--
		}
		back, err := Unmarshal(fwd.Marshal())
		if err != nil {
			return false
		}
		return back.VerifySignature(testPair.Public, secure.SHA1) == nil
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSignatureCoversFlagsAndPayload confirms that mutating any signed
// field is detected even after the TTL exclusion.
func TestSignatureCoversFlagsAndPayload(t *testing.T) {
	signer, _ := secure.NewSigner(testPair.Private, secure.SHA1)
	e := sampleEnvelope()
	if err := e.Sign(signer); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Envelope){
		func(x *Envelope) { x.Flags ^= FlagEncrypted },
		func(x *Envelope) { x.SeqNum++ },
		func(x *Envelope) { x.Token = append(x.Token, 1) },
		func(x *Envelope) { x.Source = "someone-else" },
		func(x *Envelope) { x.Timestamp++ },
	}
	for i, mutate := range mutations {
		c := e.Clone()
		mutate(c)
		if err := c.VerifySignature(testPair.Public, secure.SHA1); err == nil {
			t.Errorf("mutation %d not detected by signature", i)
		}
	}
}
