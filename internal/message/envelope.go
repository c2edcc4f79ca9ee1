package message

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"entitytrace/internal/ident"
	"entitytrace/internal/obs"
	"entitytrace/internal/secure"
	"entitytrace/internal/topic"
)

// Type identifies the content of a message. Values below firstTraceType
// are protocol messages; the remainder are the trace types of Table 1.
type Type uint16

// Protocol message types.
const (
	// TypeData is an application payload with no protocol meaning.
	TypeData Type = iota
	// TypeRegistration is a trace registration (§3.2).
	TypeRegistration
	// TypeRegistrationResponse acknowledges a registration with a session
	// identifier (§3.2).
	TypeRegistrationResponse
	// TypePing is a broker-initiated ping (§3.3).
	TypePing
	// TypePingResponse answers a ping, echoing number and timestamp.
	TypePingResponse
	// TypeInterestResponse answers a GUAGE_INTEREST probe (§3.5).
	TypeInterestResponse
	// TypeKeyDelivery carries a sealed secret trace key (§5.1).
	TypeKeyDelivery
	// TypeStateReport carries a state transition from the traced entity
	// to its broker.
	TypeStateReport
	// TypeLoadReport carries load information from the traced entity.
	TypeLoadReport
	// TypeError reports a protocol failure back to a requester.
	TypeError
	// TypeDelegation carries a sealed authorization-token delegation
	// (§4.3) from the traced entity to its hosting broker.
	TypeDelegation
	// TypeSilentMode asks the broker to disable tracing for the session
	// (the broker publishes REVERTING_TO_SILENT_MODE, §3.3).
	TypeSilentMode
	// TypeResume re-enables tracing after silent mode.
	TypeResume

	firstTraceType
)

// Trace types (Table 1).
const (
	// State information reported by a traced entity.
	TraceInitializing Type = firstTraceType + iota
	TraceRecovering
	TraceReady
	TraceShutdown
	// Broker-generated failure-detection traces.
	TraceFailureSuspicion
	TraceFailed
	TraceDisconnect
	// Interest gauging.
	TraceGaugeInterest
	// Tracing lifecycle.
	TraceJoin
	TraceRevertingToSilentMode
	// Heartbeats.
	TraceAllsWell
	// Load and network information.
	TraceLoadInformation
	TraceNetworkMetrics
	// traceRetiredHealth holds the wire value of the retired broker
	// self-monitoring snapshot (telemetry, PROTOCOL.md §3.10, replaced
	// it): the values after it are persisted in durable-log records and
	// must not renumber, and the type stays Valid so a not-yet-upgraded
	// neighbour's snapshot routes by topic instead of counting as a
	// malformed envelope against its link.
	traceRetiredHealth
	// Availability analytics: periodic per-broker ledger digests on the
	// system-availability derivative topic (appended to keep existing
	// wire values stable).
	TraceAvailabilityDigest

	// Session-key negotiation (§6.3 signing-cost optimization): protocol
	// messages appended after the trace block so existing wire values are
	// unchanged. TypeSessionKeyRequest asks the publisher's hosting
	// broker for the sealed session parameters of a session ID;
	// TypeSessionKeyResponse delivers them sealed to the requester's RSA
	// credential.
	TypeSessionKeyRequest
	TypeSessionKeyResponse

	// TypeFabricGossip carries broker-fabric membership gossip
	// (PROTOCOL.md §3.9) on the constrained system-fabric topic. Appended
	// after the session-key block so existing wire values are unchanged;
	// like those, it is a protocol message, not a trace.
	TypeFabricGossip

	// TraceTelemetrySnapshot carries a broker's periodic delta-encoded
	// metric snapshot (PROTOCOL.md §3.10) on the constrained
	// system-telemetry topic. Appended after the fabric block so
	// existing wire values are unchanged; like the fabric gossip it is a
	// protocol message, not a Table 1 trace.
	TraceTelemetrySnapshot

	lastType
)

// firstSessionType marks the end of the Table 1 trace block: the
// session-key control types appended after it are protocol messages,
// not traces.
const firstSessionType = TypeSessionKeyRequest

// IsTrace reports whether the type is one of Table 1's trace types.
// (TraceInitializing aliases firstTraceType; the session-key control
// types appended after the trace block are excluded.)
func (t Type) IsTrace() bool { return t >= firstTraceType && t < firstSessionType }

// Valid reports whether t is a known message type.
func (t Type) Valid() bool { return t < lastType }

// String returns the paper's spelling of the type where one exists.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeRegistration:
		return "REGISTRATION"
	case TypeRegistrationResponse:
		return "REGISTRATION_RESPONSE"
	case TypePing:
		return "PING"
	case TypePingResponse:
		return "PING_RESPONSE"
	case TypeInterestResponse:
		return "INTEREST_RESPONSE"
	case TypeKeyDelivery:
		return "KEY_DELIVERY"
	case TypeStateReport:
		return "STATE_REPORT"
	case TypeLoadReport:
		return "LOAD_REPORT"
	case TypeError:
		return "ERROR"
	case TypeDelegation:
		return "DELEGATION"
	case TypeSilentMode:
		return "SILENT_MODE"
	case TypeResume:
		return "RESUME"
	case TraceInitializing:
		return "INITIALIZING"
	case TraceRecovering:
		return "RECOVERING"
	case TraceReady:
		return "READY"
	case TraceShutdown:
		return "SHUTDOWN"
	case TraceFailureSuspicion:
		return "FAILURE_SUSPICION"
	case TraceFailed:
		return "FAILED"
	case TraceDisconnect:
		return "DISCONNECT"
	case TraceGaugeInterest:
		return "GUAGE_INTEREST" // the paper's own spelling
	case TraceJoin:
		return "JOIN"
	case TraceRevertingToSilentMode:
		return "REVERTING_TO_SILENT_MODE"
	case TraceAllsWell:
		return "ALLS_WELL"
	case TraceLoadInformation:
		return "LOAD_INFORMATION"
	case TraceNetworkMetrics:
		return "NETWORK_METRICS"
	case traceRetiredHealth:
		return "BROKER_HEALTH(retired)"
	case TraceAvailabilityDigest:
		return "AVAILABILITY_DIGEST"
	case TypeSessionKeyRequest:
		return "SESSION_KEY_REQUEST"
	case TypeSessionKeyResponse:
		return "SESSION_KEY_RESPONSE"
	case TypeFabricGossip:
		return "FABRIC_GOSSIP"
	case TraceTelemetrySnapshot:
		return "TELEMETRY_SNAPSHOT"
	default:
		return fmt.Sprintf("Type(%d)", uint16(t))
	}
}

// Envelope flags.
const (
	// FlagEncrypted marks a payload encrypted under the secret trace key
	// (§5.1) or the entity↔broker symmetric key (§6.3).
	FlagEncrypted uint16 = 1 << iota
	// FlagSecured in a GUAGE_INTEREST probe announces that traces will be
	// secured (§5.1: "it also sets a flag indicating that the traces will
	// be secured").
	FlagSecured
	// FlagSessionTag marks an envelope authenticated by an HMAC-SHA256
	// session tag (§6.3 signing-cost optimization) instead of a
	// per-message RSA delegate signature: Signature holds the 16-byte
	// session ID followed by the 32-byte tag. The flag is part of
	// SigningBytes, so stripping or adding it invalidates both the tag
	// and any RSA signature — a downgrade attack cannot go unnoticed.
	FlagSessionTag
)

// envelopeVersion is the wire format version byte.
const envelopeVersion = 1

// DefaultTTL bounds broker-network forwarding of a message.
const DefaultTTL = 32

// Envelope is the unit of exchange in the broker network. Topic routing
// uses Topic; authorization uses Source, Signature and Token; Payload is
// type-specific.
type Envelope struct {
	// ID uniquely identifies the message, for duplicate suppression
	// during routing.
	ID ident.UUID
	// Type identifies the payload's meaning.
	Type Type
	// Topic is the topic the message is published on.
	Topic topic.Topic
	// Source names the publishing entity ("" for broker-originated
	// messages).
	Source ident.EntityID
	// Timestamp is the publish time in Unix nanoseconds.
	Timestamp int64
	// SeqNum is a per-publisher monotonically increasing number; pings
	// use it for loss and reordering detection (§3.3).
	SeqNum uint64
	// RequestID correlates responses with requests (§3.2).
	RequestID ident.UUID
	// TTL bounds forwarding hops.
	TTL uint8
	// Flags carries FlagEncrypted / FlagSecured.
	Flags uint16
	// Payload is the serialized type-specific body.
	Payload []byte
	// Token is a serialized authorization token (§4.3), required on
	// broker-published trace messages.
	Token []byte
	// Signature covers SigningBytes (§4.2: every trace message initiated
	// at a traced entity is cryptographically signed).
	Signature []byte
	// Span is the optional per-hop tracing annotation (observability
	// layer). Like the TTL it is mutable routing state: excluded from
	// SigningBytes, appended after the signature on the wire, absent in
	// seed-format envelopes.
	Span *Span
}

// New builds an envelope with a fresh ID, the given type/topic/payload,
// the current time and the default TTL.
func New(t Type, tp topic.Topic, source ident.EntityID, payload []byte) *Envelope {
	return &Envelope{
		ID:        ident.NewUUID(),
		Type:      t,
		Topic:     tp,
		Source:    source,
		Timestamp: time.Now().UnixNano(),
		TTL:       DefaultTTL,
		Payload:   payload,
	}
}

// Time returns the timestamp as a time.Time.
func (e *Envelope) Time() time.Time { return time.Unix(0, e.Timestamp) }

// ttlExcluded selects the signed form in marshalBody: TTL is mutable
// routing state, decremented at every forwarding broker, so it must be
// excluded from signatures (like the mutable header fields of IPsec AH).
const ttlExcluded = -1

// marshalBody serializes everything except the signature. ttl is the
// TTL byte to emit, or ttlExcluded for the signed form; forwarding
// brokers pass the decremented value so re-marshaling does not require
// mutating (and therefore cloning) the envelope.
func (e *Envelope) marshalBody(w *writer, ttl int) {
	w.u8(envelopeVersion)
	w.uuid(e.ID)
	w.u16(uint16(e.Type))
	w.str(e.Topic.String())
	w.str(string(e.Source))
	w.i64(e.Timestamp)
	w.u64(e.SeqNum)
	w.uuid(e.RequestID)
	if ttl != ttlExcluded {
		w.u8(uint8(ttl))
	}
	w.u16(e.Flags)
	w.bytes(e.Payload)
	w.bytes(e.Token)
}

// bodySize returns the exact serialized size of marshalBody's output so
// buffers can be allocated once, with withTTL selecting the wire form.
func (e *Envelope) bodySize(withTTL bool) int {
	n := 1 + 16 + 2 + // version, ID, type
		4 + len(e.Topic.String()) +
		4 + len(e.Source) +
		8 + 8 + 16 + // timestamp, seqnum, request ID
		2 + // flags
		4 + len(e.Payload) +
		4 + len(e.Token)
	if withTTL {
		n++
	}
	return n
}

// WireSize returns the exact length Marshal would produce, so frame
// buffers can be sized without a trial serialization.
func (e *Envelope) WireSize() int {
	return e.bodySize(true) + 4 + len(e.Signature) + e.Span.wireSize()
}

// SigningBytes returns the canonical byte string a signature covers: the
// full body excluding the signature itself and the mutable TTL.
func (e *Envelope) SigningBytes() []byte {
	w := writer{buf: make([]byte, 0, e.bodySize(false))}
	e.marshalBody(&w, ttlExcluded)
	return w.buf
}

// signingScratch pools the transient buffers Sign and VerifySignature
// serialize into: the canonical bytes only live for the duration of one
// hash, and brokers re-verify a delegate signature on every forwarded
// trace, so these allocations are pure hot-path garbage.
var signingScratch = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// withSigningBytes invokes f with the pooled canonical signing bytes.
func (e *Envelope) withSigningBytes(f func(b []byte) error) error {
	bp := signingScratch.Get().(*[]byte)
	w := writer{buf: (*bp)[:0]}
	e.marshalBody(&w, ttlExcluded)
	err := f(w.buf)
	*bp = w.buf
	signingScratch.Put(bp)
	return err
}

// Envelope crypto latencies, the per-hop costs of the paper's §5
// evaluation, observed on every live sign/verify.
var (
	mSignLatency   = obs.Default.Histogram("envelope_sign_ms", nil)
	mVerifyLatency = obs.Default.Histogram("envelope_verify_ms", nil)
)

// Sign computes and attaches a signature over SigningBytes (§3.2: the
// signing is done by computing the checksum for the message and
// encrypting this message digest with its private key).
func (e *Envelope) Sign(s *secure.Signer) error {
	start := time.Now()
	err := e.withSigningBytes(func(b []byte) error {
		sig, err := s.Sign(b)
		if err != nil {
			return err
		}
		e.Signature = sig
		return nil
	})
	if err != nil {
		return err
	}
	mSignLatency.ObserveDuration(time.Since(start))
	return nil
}

// Session-path authentication metrics, the amortized counterpart of the
// RSA sign/verify histograms above. Unlike the RSA ops (tens of µs, two
// clock reads are noise), a session tag is sub-µs work where the clock
// reads alone cost ~12% — so these histograms sample 1-in-N, the same
// trade the flight recorder makes on the routing path.
var (
	mSessionSignLatency   = obs.Default.Histogram("envelope_session_sign_ms", nil)
	mSessionVerifyLatency = obs.Default.Histogram("envelope_session_verify_ms", nil)
	sessionLatTick        atomic.Uint64
)

// sessionLatSample is the 1-in-N sampling rate for the session-tag
// latency histograms.
const sessionLatSample = 64

// ErrNoSessionTag reports an envelope that does not carry a session tag
// (FlagSessionTag clear or Signature malformed).
var ErrNoSessionTag = errors.New("message: envelope has no session tag")

// SignSession authenticates the envelope with a session tag instead of
// an RSA signature: sets FlagSessionTag and writes sessionID||tag into
// Signature, where the tag is HMAC-SHA256 over SigningBytes (which
// includes the flag, binding the choice of mechanism).
func (e *Envelope) SignSession(k *secure.SessionKey) error {
	timed := sessionLatTick.Add(1)%sessionLatSample == 0
	var start time.Time
	if timed {
		start = time.Now()
	}
	e.Flags |= FlagSessionTag
	id := k.ID()
	err := e.withSigningBytes(func(b []byte) error {
		sig := make([]byte, 0, secure.SessionIDLen+secure.SessionTagLen)
		sig = append(sig, id[:]...)
		e.Signature = k.AppendTag(sig, b)
		return nil
	})
	if err != nil {
		return err
	}
	if timed {
		mSessionSignLatency.ObserveDuration(time.Since(start))
	}
	return nil
}

// SessionID extracts the session identifier from a session-tagged
// envelope's signature field. Returns ErrNoSessionTag if the envelope is
// not session-tagged or the field is too short to hold an ID and tag.
func (e *Envelope) SessionID() ([secure.SessionIDLen]byte, error) {
	var id [secure.SessionIDLen]byte
	if e.Flags&FlagSessionTag == 0 {
		return id, ErrNoSessionTag
	}
	if len(e.Signature) != secure.SessionIDLen+secure.SessionTagLen {
		return id, fmt.Errorf("%w: signature length %d", ErrNoSessionTag, len(e.Signature))
	}
	copy(id[:], e.Signature[:secure.SessionIDLen])
	return id, nil
}

// VerifySessionTag checks the session tag against k. The caller is
// responsible for looking k up by SessionID and enforcing its validity
// window and token binding.
func (e *Envelope) VerifySessionTag(k *secure.SessionKey) error {
	if e.Flags&FlagSessionTag == 0 || len(e.Signature) != secure.SessionIDLen+secure.SessionTagLen {
		return ErrNoSessionTag
	}
	timed := sessionLatTick.Add(1)%sessionLatSample == 0
	var start time.Time
	if timed {
		start = time.Now()
	}
	err := e.withSigningBytes(func(b []byte) error {
		return k.VerifyTag(b, e.Signature[secure.SessionIDLen:])
	})
	if err == nil && timed {
		mSessionVerifyLatency.ObserveDuration(time.Since(start))
	}
	return err
}

// VerifySignature checks the attached signature against pub.
func (e *Envelope) VerifySignature(pub *rsa.PublicKey, h secure.Hash) error {
	if len(e.Signature) == 0 {
		return errors.New("message: envelope is unsigned")
	}
	start := time.Now()
	err := e.withSigningBytes(func(b []byte) error {
		return secure.Verify(pub, h, b, e.Signature)
	})
	if err == nil {
		mVerifyLatency.ObserveDuration(time.Since(start))
	}
	return err
}

// Marshal serializes the envelope including any signature, followed by
// the optional span annotation. The buffer is sized exactly, so the
// serialization costs one allocation.
func (e *Envelope) Marshal() []byte {
	return e.AppendWire(make([]byte, 0, e.WireSize()), e.TTL)
}

// AppendWire appends the envelope's wire form to dst with ttl in place
// of e.TTL, and returns the extended buffer. Forwarding brokers use it
// to emit the TTL-decremented frame without cloning the envelope:
// everything except the TTL byte is emitted byte-identically.
func (e *Envelope) AppendWire(dst []byte, ttl uint8) []byte {
	w := writer{buf: dst}
	e.marshalBody(&w, int(ttl))
	w.bytes(e.Signature)
	if e.Span != nil {
		e.Span.marshal(&w)
	}
	return w.buf
}

// Unmarshal parses a wire-format envelope. The returned envelope owns
// copies of all variable-length fields.
func Unmarshal(b []byte) (*Envelope, error) {
	return unmarshalReader(newReader(b))
}

// UnmarshalShared parses a wire-format envelope whose Payload, Token and
// Signature alias b. Receive loops use it on freshly allocated frame
// buffers they own — the per-field copies are the dominant allocation on
// the routing hot path. The caller must not modify b afterwards; use
// Unmarshal (or Clone the result) when buffer lifetime is unclear.
func UnmarshalShared(b []byte) (*Envelope, error) {
	return unmarshalReader(newSharedReader(b))
}

func unmarshalReader(r *reader) (*Envelope, error) {
	if v := r.u8(); r.err == nil && v != envelopeVersion {
		return nil, fmt.Errorf("message: unsupported envelope version %d", v)
	}
	e := &Envelope{}
	e.ID = r.uuid()
	e.Type = Type(r.u16())
	topicStr := r.str()
	e.Source = ident.EntityID(r.str())
	e.Timestamp = r.i64()
	e.SeqNum = r.u64()
	e.RequestID = r.uuid()
	e.TTL = r.u8()
	e.Flags = r.u16()
	e.Payload = r.bytes()
	e.Token = r.bytes()
	e.Signature = r.bytes()
	// Optional trailing span annotation; seed-format envelopes end here.
	if r.err == nil && r.off < len(r.b) {
		span, err := unmarshalSpan(r)
		if err != nil {
			return nil, err
		}
		e.Span = span
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	tp, err := topic.Parse(topicStr)
	if err != nil {
		return nil, fmt.Errorf("message: envelope topic: %w", err)
	}
	e.Topic = tp
	if !e.Type.Valid() {
		return nil, fmt.Errorf("message: unknown message type %d", uint16(e.Type))
	}
	return e, nil
}

// Clone returns a deep copy; brokers clone before mutating TTL (or
// stamping hops) so shared references stay immutable.
func (e *Envelope) Clone() *Envelope {
	cp := *e
	cp.Payload = append([]byte(nil), e.Payload...)
	cp.Token = append([]byte(nil), e.Token...)
	cp.Signature = append([]byte(nil), e.Signature...)
	cp.Span = e.Span.Clone()
	return &cp
}
