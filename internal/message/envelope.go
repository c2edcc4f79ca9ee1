// Package message defines the message envelope exchanged through the
// broker network and the payloads of the tracing protocol (registrations,
// pings, traces, gauge-interest exchanges, key deliveries). Messages are
// serialized with the internal/wire codec: length-prefixed fields,
// big-endian fixed-width integers, no reflection.
package message

import (
	"bytes"
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
	"entitytrace/internal/wire"
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
	// traceRetiredHealth and traceRetiredAvailDigest hold the wire values
	// of the retired broker self-monitoring snapshot and availability
	// digest (the telemetry snapshot, PROTOCOL.md §3.10, carries both
	// now): the values after them are persisted in durable-log records
	// and must not renumber, and the types stay Valid so a
	// not-yet-upgraded neighbour's broadcast routes by topic instead of
	// counting as a malformed envelope against its link.
	traceRetiredHealth
	traceRetiredAvailDigest

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
	case traceRetiredAvailDigest:
		return "AVAILABILITY_DIGEST(retired)"
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

	// rx is the encoding a shared decode read this copy from. It is never
	// on the wire, and Clone drops it.
	rx receipt
}

// receipt is the encoding a shared decode read an envelope from: ttlOff
// and sigOff locate its TTL byte and its signature's length prefix, so
// wire[:ttlOff] ‖ wire[ttlOff+1:sigOff] is SigningBytes for as long as
// the signed fields hold what was decoded.
type receipt struct {
	wire           []byte
	ttlOff, sigOff int32
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
func (e *Envelope) marshalBody(w *wire.Writer, ttl int) {
	w.U8(envelopeVersion)
	w.Raw(e.ID[:])
	w.U16(uint16(e.Type))
	w.Str(e.Topic.String())
	w.Str(string(e.Source))
	w.I64(e.Timestamp)
	w.U64(e.SeqNum)
	w.Raw(e.RequestID[:])
	if ttl != ttlExcluded {
		w.U8(uint8(ttl))
	}
	w.U16(e.Flags)
	w.Bytes(e.Payload)
	w.Bytes(e.Token)
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
	w := wire.Writer{Buf: make([]byte, 0, e.bodySize(false))}
	e.marshalBody(&w, ttlExcluded)
	return w.Buf
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
	w := wire.Writer{Buf: (*bp)[:0]}
	e.marshalBody(&w, ttlExcluded)
	err := f(w.Buf)
	*bp = w.Buf
	signingScratch.Put(bp)
	return err
}

// signedInPlace returns SigningBytes as the two pieces of the received
// encoding they lie in, wire[:ttlOff] and wire[ttlOff+1:sigOff], without
// serializing anything. The decoder keeps every field verbatim (the
// topic string included), caps span hops at MaxHops and rejects trailing
// bytes, so a decoded envelope re-encodes to exactly the bytes it came
// from. ok is false for an envelope built in memory or cloned, and for
// one whose signed fields no longer match their encoding: those are
// serialized, so no modified envelope is ever checked against stale
// bytes.
func (e *Envelope) signedInPlace() (head, tail []byte, ok bool) {
	w := e.rx.wire
	if w == nil {
		return nil, nil, false
	}
	head, tail = w[:e.rx.ttlOff], w[e.rx.ttlOff+1:e.rx.sigOff]
	h, t := wire.NewReader(head, wire.MaxField), wire.NewReader(tail, wire.MaxField)
	ok = h.U8() == envelopeVersion &&
		bytes.Equal(h.Take(16), e.ID[:]) &&
		h.U16() == uint16(e.Type) &&
		string(h.View()) == e.Topic.String() &&
		string(h.View()) == string(e.Source) &&
		h.I64() == e.Timestamp &&
		h.U64() == e.SeqNum &&
		bytes.Equal(h.Take(16), e.RequestID[:]) &&
		t.U16() == e.Flags &&
		bytes.Equal(t.View(), e.Payload) &&
		bytes.Equal(t.View(), e.Token) &&
		h.Done() == nil && t.Done() == nil
	return head, tail, ok
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
// window and token binding. A received envelope is checked over the
// bytes it arrived in (see signedInPlace), anything else over its
// serialized signing bytes; the verdict is the same.
func (e *Envelope) VerifySessionTag(k *secure.SessionKey) error {
	if e.Flags&FlagSessionTag == 0 || len(e.Signature) != secure.SessionIDLen+secure.SessionTagLen {
		return ErrNoSessionTag
	}
	timed := sessionLatTick.Add(1)%sessionLatSample == 0
	var start time.Time
	if timed {
		start = time.Now()
	}
	tag := e.Signature[secure.SessionIDLen:]
	var err error
	if head, tail, ok := e.signedInPlace(); ok {
		err = k.VerifyTagSplit(head, tail, tag)
	} else {
		err = e.withSigningBytes(func(b []byte) error { return k.VerifyTag(b, tag) })
	}
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
	w := wire.Writer{Buf: dst}
	e.marshalBody(&w, int(ttl))
	w.Bytes(e.Signature)
	if e.Span != nil {
		e.Span.marshal(&w, nil)
	}
	return w.Buf
}

// AppendForward appends to dst the wire form a forwarding node emits for
// e: the TTL decremented and, when e carries a span, one more hop — node
// at at — after the recorded ones, refused and counted in
// span_hops_truncated_total past MaxHops. It is Clone, AddHop and
// AppendWire(TTL-1) in one pass, and leaves e untouched.
func (e *Envelope) AppendForward(dst []byte, node string, at time.Time) []byte {
	w := wire.Writer{Buf: dst}
	e.marshalBody(&w, int(e.TTL-1))
	w.Bytes(e.Signature)
	if e.Span != nil {
		e.Span.marshal(&w, &Hop{Node: node, AtNanos: at.UnixNano()})
	}
	return w.Buf
}

// SpliceForward appends to dst the wire form a forwarding node emits for
// the envelope encoded in enc, made from enc itself: one copy with the
// TTL byte decremented and, when a span trailer is present, node's hop
// at at appended to it and its count byte raised — or, at MaxHops, the
// hop refused and counted in span_hops_truncated_total. For every
// encoding the decoder accepts, the result is what AppendForward emits
// for the decoded envelope. err reports an encoding whose field layout
// is not an envelope's.
func SpliceForward(dst, enc []byte, node string, at time.Time) ([]byte, error) {
	r := wire.NewReader(enc, wire.MaxField)
	if v := r.U8(); r.Err() == nil && v != envelopeVersion {
		return dst, fmt.Errorf("message: unsupported envelope version %d", v)
	}
	r.Take(16 + 2) // ID, type
	r.View()       // topic
	r.View()       // source
	r.Take(8 + 8 + 16)
	ttlOff := r.Offset()
	r.Take(1 + 2) // TTL, flags
	r.View()      // payload
	r.View()      // token
	r.View()      // signature
	spanOff := r.Offset()
	if r.Err() != nil {
		return dst, r.Err()
	}
	hasSpan := spanOff < len(enc)
	if hasSpan && (len(enc) < spanOff+1+16+1 || enc[spanOff] != spanMarker) {
		return dst, fmt.Errorf("message: malformed envelope trailer")
	}
	base := len(dst)
	dst = append(dst, enc...)
	dst[base+ttlOff]--
	if !hasSpan {
		return dst, nil
	}
	count := base + spanOff + 1 + 16
	if !spanHasRoom(int(dst[count])) {
		return dst, nil
	}
	dst[count]++
	w := wire.Writer{Buf: dst}
	w.Str(node)
	w.I64(at.UnixNano())
	return w.Buf, nil
}

// Unmarshal parses a wire-format envelope. The returned envelope owns
// copies of all variable-length fields.
func Unmarshal(b []byte) (*Envelope, error) {
	return unmarshal(b, false, nil)
}

// UnmarshalShared parses a wire-format envelope whose Payload, Token and
// Signature alias b. Receive loops use it on freshly allocated frame
// buffers they own — the per-field copies are the dominant allocation on
// the routing hot path. The caller must not modify b afterwards; use
// Unmarshal (or Clone the result) when buffer lifetime is unclear. A
// receive loop that decodes many envelopes uses a Decoder instead.
func UnmarshalShared(b []byte) (*Envelope, error) {
	return unmarshal(b, true, nil)
}

// unmarshal parses one envelope, its repeating strings through d. A
// shared parse aliases b and remembers it (see signedInPlace).
func unmarshal(b []byte, shared bool, d *Decoder) (*Envelope, error) {
	r := wire.NewReader(b, wire.MaxField)
	if shared {
		r = wire.NewSharedReader(b, wire.MaxField)
	}
	if v := r.U8(); r.Err() == nil && v != envelopeVersion {
		return nil, fmt.Errorf("message: unsupported envelope version %d", v)
	}
	e := &Envelope{}
	e.ID = r.UUID()
	e.Type = Type(r.U16())
	rawTopic := r.View()
	e.Source = ident.EntityID(d.name(r.View()))
	e.Timestamp = r.I64()
	e.SeqNum = r.U64()
	e.RequestID = r.UUID()
	ttlOff := r.Offset()
	e.TTL = r.U8()
	e.Flags = r.U16()
	e.Payload = r.Bytes()
	e.Token = r.Bytes()
	sigOff := r.Offset()
	e.Signature = r.Bytes()
	// Optional trailing span annotation; seed-format envelopes end here.
	if r.Err() == nil && r.Len() > 0 {
		span, err := unmarshalSpan(r, d)
		if err != nil {
			return nil, err
		}
		e.Span = span
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	tp, err := d.topic(rawTopic)
	if err != nil {
		return nil, fmt.Errorf("message: envelope topic: %w", err)
	}
	e.Topic = tp
	if !e.Type.Valid() {
		return nil, fmt.Errorf("message: unknown message type %d", uint16(e.Type))
	}
	if shared {
		e.rx = receipt{wire: b, ttlOff: int32(ttlOff), sigOff: int32(sigOff)}
	}
	return e, nil
}

// Clone returns a deep copy; brokers clone before mutating TTL (or
// stamping hops) so shared references stay immutable. The copy has no
// receipt: it was not decoded.
func (e *Envelope) Clone() *Envelope {
	cp := *e
	cp.Payload = append([]byte(nil), e.Payload...)
	cp.Token = append([]byte(nil), e.Token...)
	cp.Signature = append([]byte(nil), e.Signature...)
	cp.Span = e.Span.Clone()
	cp.rx = receipt{}
	return &cp
}
