package message

import (
	"fmt"

	"entitytrace/internal/ident"
	"entitytrace/internal/topic"
)

// EntityState is a traced entity's lifecycle state (§3.3: INITIALIZING,
// RECOVERING, READY or SHUTDOWN).
type EntityState uint8

const (
	StateInitializing EntityState = iota
	StateRecovering
	StateReady
	StateShutdown
)

// String returns the paper's spelling of the state.
func (s EntityState) String() string {
	switch s {
	case StateInitializing:
		return "INITIALIZING"
	case StateRecovering:
		return "RECOVERING"
	case StateReady:
		return "READY"
	case StateShutdown:
		return "SHUTDOWN"
	default:
		return fmt.Sprintf("EntityState(%d)", uint8(s))
	}
}

// Valid reports whether s is a defined state.
func (s EntityState) Valid() bool { return s <= StateShutdown }

// TraceType returns the Table 1 trace type announcing this state.
func (s EntityState) TraceType() Type {
	switch s {
	case StateInitializing:
		return TraceInitializing
	case StateRecovering:
		return TraceRecovering
	case StateReady:
		return TraceReady
	default:
		return TraceShutdown
	}
}

// Registration is the payload of a TypeRegistration message (§3.2): the
// entity's identifier and credentials and the trace-topic advertisement
// establishing provenance, plus the entity's security elections. The
// request identifier and the signature live on the envelope. Keys (the
// §6.3 symmetric channel key, the §5.1 secret trace key and the §4.3
// delegation) follow after the response, sealed to the broker credential
// it carries.
type Registration struct {
	Entity        ident.EntityID
	CertDER       []byte
	Advertisement []byte
	// SecureTraces requests §5.1 confidentiality: the entity will send a
	// secret trace key and the broker will encrypt published traces.
	SecureTraces bool
	// SymmetricChannel requests the §6.3 signing-cost optimization: the
	// entity will send a shared symmetric key and authenticate its
	// messages by authenticated encryption instead of signatures.
	SymmetricChannel bool
}

// Marshal serializes the registration payload.
func (rg *Registration) Marshal() []byte {
	var w writer
	w.str(string(rg.Entity))
	w.bytes(rg.CertDER)
	w.bytes(rg.Advertisement)
	if rg.SecureTraces {
		w.u8(1)
	} else {
		w.u8(0)
	}
	if rg.SymmetricChannel {
		w.u8(1)
	} else {
		w.u8(0)
	}
	return w.buf
}

// UnmarshalRegistration parses a Registration payload.
func UnmarshalRegistration(b []byte) (*Registration, error) {
	r := newReader(b)
	rg := &Registration{}
	rg.Entity = ident.EntityID(r.str())
	rg.CertDER = r.bytes()
	rg.Advertisement = r.bytes()
	rg.SecureTraces = r.u8() == 1
	rg.SymmetricChannel = r.u8() == 1
	if err := r.done(); err != nil {
		return nil, err
	}
	return rg, nil
}

// RegistrationResponse is the *sealed* body of a
// TypeRegistrationResponse: the request identifier from the original
// message and the newly generated session identifier (§3.2). The entire
// struct is encrypted with a random secret key wrapped under the
// entity's public key; the envelope's Payload carries the sealed bytes.
type RegistrationResponse struct {
	RequestID ident.RequestID
	SessionID ident.SessionID
	// BrokerCert is the hosting broker's DER credential; the entity
	// seals its keys and delegation to this certificate's public key.
	BrokerCert []byte
}

// Marshal serializes the response body (pre-sealing).
func (rr *RegistrationResponse) Marshal() []byte {
	var w writer
	w.uuid(rr.RequestID)
	w.uuid(rr.SessionID)
	w.bytes(rr.BrokerCert)
	return w.buf
}

// UnmarshalRegistrationResponse parses a response body (post-opening).
func UnmarshalRegistrationResponse(b []byte) (*RegistrationResponse, error) {
	r := newReader(b)
	rr := &RegistrationResponse{}
	rr.RequestID = r.uuid()
	rr.SessionID = r.uuid()
	rr.BrokerCert = r.bytes()
	if err := r.done(); err != nil {
		return nil, err
	}
	return rr, nil
}

// Ping is the payload of a broker-initiated ping (§3.3): a monotonically
// increasing message number and the broker timestamp at issue time.
type Ping struct {
	Number          uint64
	BrokerTimestamp int64
}

// Marshal serializes the ping.
func (p *Ping) Marshal() []byte {
	var w writer
	w.u64(p.Number)
	w.i64(p.BrokerTimestamp)
	return w.buf
}

// UnmarshalPing parses a Ping payload.
func UnmarshalPing(b []byte) (*Ping, error) {
	r := newReader(b)
	p := &Ping{}
	p.Number = r.u64()
	p.BrokerTimestamp = r.i64()
	if err := r.done(); err != nil {
		return nil, err
	}
	return p, nil
}

// PingResponse answers a ping; it must include both the message number
// and the timestamp contained in the original ping (§3.3).
type PingResponse struct {
	Number          uint64
	BrokerTimestamp int64
	EntityTimestamp int64
	State           EntityState
}

// Marshal serializes the ping response.
func (p *PingResponse) Marshal() []byte {
	var w writer
	w.u64(p.Number)
	w.i64(p.BrokerTimestamp)
	w.i64(p.EntityTimestamp)
	w.u8(uint8(p.State))
	return w.buf
}

// UnmarshalPingResponse parses a PingResponse payload.
func UnmarshalPingResponse(b []byte) (*PingResponse, error) {
	r := newReader(b)
	p := &PingResponse{}
	p.Number = r.u64()
	p.BrokerTimestamp = r.i64()
	p.EntityTimestamp = r.i64()
	p.State = EntityState(r.u8())
	if err := r.done(); err != nil {
		return nil, err
	}
	if !p.State.Valid() {
		return nil, fmt.Errorf("message: invalid entity state %d", uint8(p.State))
	}
	return p, nil
}

// StateReport is sent by a traced entity whenever a state transition
// occurs (§3.3).
type StateReport struct {
	From EntityState
	To   EntityState
	At   int64
}

// Marshal serializes the state report.
func (s *StateReport) Marshal() []byte {
	var w writer
	w.u8(uint8(s.From))
	w.u8(uint8(s.To))
	w.i64(s.At)
	return w.buf
}

// UnmarshalStateReport parses a StateReport payload.
func UnmarshalStateReport(b []byte) (*StateReport, error) {
	r := newReader(b)
	s := &StateReport{}
	s.From = EntityState(r.u8())
	s.To = EntityState(r.u8())
	s.At = r.i64()
	if err := r.done(); err != nil {
		return nil, err
	}
	if !s.From.Valid() || !s.To.Valid() {
		return nil, fmt.Errorf("message: invalid state transition %d->%d", s.From, s.To)
	}
	return s, nil
}

// LoadReport carries the load information of §3.3: CPU info, memory
// usage and workload.
type LoadReport struct {
	CPUPercent       float64
	MemoryUsedBytes  uint64
	MemoryTotalBytes uint64
	Workload         float64
	At               int64
}

// Marshal serializes the load report.
func (l *LoadReport) Marshal() []byte {
	var w writer
	w.f64(l.CPUPercent)
	w.u64(l.MemoryUsedBytes)
	w.u64(l.MemoryTotalBytes)
	w.f64(l.Workload)
	w.i64(l.At)
	return w.buf
}

// UnmarshalLoadReport parses a LoadReport payload.
func UnmarshalLoadReport(b []byte) (*LoadReport, error) {
	r := newReader(b)
	l := &LoadReport{}
	l.CPUPercent = r.f64()
	l.MemoryUsedBytes = r.u64()
	l.MemoryTotalBytes = r.u64()
	l.Workload = r.f64()
	l.At = r.i64()
	if err := r.done(); err != nil {
		return nil, err
	}
	return l, nil
}

// NetworkReport carries the network-realm metrics of §3.3, computed by
// the broker from ping/response behaviour: loss rates, transit delay and
// bandwidth, plus out-of-order delivery rates.
type NetworkReport struct {
	LossRate       float64
	MeanRTTMillis  float64
	OutOfOrderRate float64
	BandwidthBps   float64
	SampleCount    uint32
	At             int64
}

// Marshal serializes the network report.
func (n *NetworkReport) Marshal() []byte {
	var w writer
	w.f64(n.LossRate)
	w.f64(n.MeanRTTMillis)
	w.f64(n.OutOfOrderRate)
	w.f64(n.BandwidthBps)
	w.u32(n.SampleCount)
	w.i64(n.At)
	return w.buf
}

// UnmarshalNetworkReport parses a NetworkReport payload.
func UnmarshalNetworkReport(b []byte) (*NetworkReport, error) {
	r := newReader(b)
	n := &NetworkReport{}
	n.LossRate = r.f64()
	n.MeanRTTMillis = r.f64()
	n.OutOfOrderRate = r.f64()
	n.BandwidthBps = r.f64()
	n.SampleCount = r.u32()
	n.At = r.i64()
	if err := r.done(); err != nil {
		return nil, err
	}
	return n, nil
}

// GaugeInterestProbe is the payload of a TraceGaugeInterest message
// (§3.5). Secured mirrors the envelope FlagSecured bit for convenience;
// ResponseTopic names the Subscribe-Only topic trackers answer on.
type GaugeInterestProbe struct {
	TraceTopic    ident.UUID
	Secured       bool
	ResponseTopic string
}

// Marshal serializes the probe.
func (g *GaugeInterestProbe) Marshal() []byte {
	var w writer
	w.uuid(g.TraceTopic)
	if g.Secured {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.str(g.ResponseTopic)
	return w.buf
}

// UnmarshalGaugeInterestProbe parses a probe payload.
func UnmarshalGaugeInterestProbe(b []byte) (*GaugeInterestProbe, error) {
	r := newReader(b)
	g := &GaugeInterestProbe{}
	g.TraceTopic = r.uuid()
	g.Secured = r.u8() == 1
	g.ResponseTopic = r.str()
	if err := r.done(); err != nil {
		return nil, err
	}
	return g, nil
}

// InterestResponse is a tracker's answer to a gauge-interest probe
// (§3.5, §5.1): the classes of trace information it wants, its
// credentials, and — when traces are secured — the topic over which it
// expects the sealed trace key.
type InterestResponse struct {
	Tracker          ident.EntityID
	TraceTopic       ident.UUID
	Classes          topic.ClassSet
	CertDER          []byte
	KeyDeliveryTopic string
}

// Marshal serializes the interest response.
func (ir *InterestResponse) Marshal() []byte {
	var w writer
	w.str(string(ir.Tracker))
	w.uuid(ir.TraceTopic)
	w.u8(uint8(ir.Classes))
	w.bytes(ir.CertDER)
	w.str(ir.KeyDeliveryTopic)
	return w.buf
}

// UnmarshalInterestResponse parses an interest response payload.
func UnmarshalInterestResponse(b []byte) (*InterestResponse, error) {
	r := newReader(b)
	ir := &InterestResponse{}
	ir.Tracker = ident.EntityID(r.str())
	ir.TraceTopic = r.uuid()
	ir.Classes = topic.ClassSet(r.u8())
	ir.CertDER = r.bytes()
	ir.KeyDeliveryTopic = r.str()
	if err := r.done(); err != nil {
		return nil, err
	}
	return ir, nil
}

// Key purposes for TypeKeyDelivery messages.
const (
	// PurposeChannel is the §6.3 entity-to-broker symmetric channel key.
	PurposeChannel uint8 = 1
	// PurposeTrace is the §5.1 secret trace key encrypting published
	// traces.
	PurposeTrace uint8 = 2
)

// TraceKey is the *sealed* body of a TypeKeyDelivery message (§5.1,
// §6.3): a secret key together with the encryption algorithm and padding
// scheme that will be used, and the purpose it serves.
type TraceKey struct {
	Purpose   uint8
	Key       []byte
	Algorithm string
	Padding   string
}

// Marshal serializes the trace key body (pre-sealing).
func (tk *TraceKey) Marshal() []byte {
	var w writer
	w.u8(tk.Purpose)
	w.bytes(tk.Key)
	w.str(tk.Algorithm)
	w.str(tk.Padding)
	return w.buf
}

// UnmarshalTraceKey parses a trace key body (post-opening).
func UnmarshalTraceKey(b []byte) (*TraceKey, error) {
	r := newReader(b)
	tk := &TraceKey{}
	tk.Purpose = r.u8()
	tk.Key = r.bytes()
	tk.Algorithm = r.str()
	tk.Padding = r.str()
	if err := r.done(); err != nil {
		return nil, err
	}
	if tk.Purpose != PurposeChannel && tk.Purpose != PurposeTrace {
		return nil, fmt.Errorf("message: unknown key purpose %d", tk.Purpose)
	}
	return tk, nil
}

// Delegation is the *sealed* body of a TypeDelegation message (§4.3):
// the signed authorization token and the randomly generated private key
// whose public half the token carries, with which the broker signs the
// trace messages it publishes.
type Delegation struct {
	TokenBytes      []byte
	DelegatePrivDER []byte
}

// Marshal serializes the delegation body (pre-sealing).
func (d *Delegation) Marshal() []byte {
	var w writer
	w.bytes(d.TokenBytes)
	w.bytes(d.DelegatePrivDER)
	return w.buf
}

// UnmarshalDelegation parses a delegation body (post-opening).
func UnmarshalDelegation(b []byte) (*Delegation, error) {
	r := newReader(b)
	d := &Delegation{}
	d.TokenBytes = r.bytes()
	d.DelegatePrivDER = r.bytes()
	if err := r.done(); err != nil {
		return nil, err
	}
	return d, nil
}

// TraceEvent is the generic trace body a broker publishes to trackers:
// which entity the trace concerns, the session, free-form detail, and an
// optional nested report (StateReport / LoadReport / NetworkReport)
// selected by the envelope's Type.
type TraceEvent struct {
	Entity     ident.EntityID
	TraceTopic ident.UUID
	Detail     string
	Body       []byte
}

// Marshal serializes the trace event.
func (te *TraceEvent) Marshal() []byte {
	var w writer
	w.str(string(te.Entity))
	w.uuid(te.TraceTopic)
	w.str(te.Detail)
	w.bytes(te.Body)
	return w.buf
}

// UnmarshalTraceEvent parses a trace event payload.
func UnmarshalTraceEvent(b []byte) (*TraceEvent, error) {
	r := newReader(b)
	te := &TraceEvent{}
	te.Entity = ident.EntityID(r.str())
	te.TraceTopic = r.uuid()
	te.Detail = r.str()
	te.Body = r.bytes()
	if err := r.done(); err != nil {
		return nil, err
	}
	return te, nil
}

// ErrorReport is the payload of a TypeError message (§3.2: "If there is
// any error in the verification process, an error message is returned
// back to the entity").
type ErrorReport struct {
	Code   uint16
	Detail string
}

// Error codes.
const (
	ErrCodeBadSignature uint16 = iota + 1
	ErrCodeBadCredential
	ErrCodeBadAdvertisement
	ErrCodeUnauthorized
	ErrCodeInternal
)

// Marshal serializes the error report.
func (er *ErrorReport) Marshal() []byte {
	var w writer
	w.u16(er.Code)
	w.str(er.Detail)
	return w.buf
}

// UnmarshalErrorReport parses an error report payload.
func UnmarshalErrorReport(b []byte) (*ErrorReport, error) {
	r := newReader(b)
	er := &ErrorReport{}
	er.Code = r.u16()
	er.Detail = r.str()
	if err := r.done(); err != nil {
		return nil, err
	}
	return er, nil
}

// AvailabilityRow is one entity's row in an availability digest: the
// ledger-derived state, uptime ratios, MTBF/MTTR, flap and detection
// statistics, and the SLO error-budget position.
type AvailabilityRow struct {
	// Entity names the tracked entity.
	Entity string
	// State is the ledger state (avail.State numeric value: 0 Unknown,
	// 1 Up, 2 Suspect, 3 Down, 4 Flapping).
	State uint8
	// SinceNanos is the wall-clock time the current state was entered.
	SinceNanos int64
	// Transitions counts up<->down transitions observed so far.
	Transitions uint32
	// Flaps counts flap episodes (entries into FLAPPING).
	Flaps uint32
	// DowntimeNanos is cumulative observed downtime.
	DowntimeNanos int64
	// Uptime5m/1h/24h are rolling-window uptime ratios in [0,1]; -1
	// marks a window with no observations yet.
	Uptime5m  float64
	Uptime1h  float64
	Uptime24h float64
	// MTBFNanos/MTTRNanos are mean time between failures / to recovery;
	// zero when no complete cycle has been observed.
	MTBFNanos int64
	MTTRNanos int64
	// DetectLastNanos/DetectMaxNanos are the skew-corrected
	// time-to-detect of the most recent failure and the worst seen.
	DetectLastNanos int64
	DetectMaxNanos  int64
	// BudgetRemaining is the SLO error budget remaining as a fraction of
	// the whole budget in [0,1]; -1 when no SLO is configured.
	BudgetRemaining float64
	// BurnRate is the current error-budget burn rate (1.0 = burning
	// exactly at the sustainable SLO rate); -1 when no SLO is set.
	BurnRate float64
	// Breaches counts SLO breach episodes.
	Breaches uint32
}

// AvailabilityDigest is the payload of a TraceAvailabilityDigest
// message: the periodic fleet-availability snapshot a broker publishes
// about the entities it hosts on the system-availability derivative
// topic, so a single subscription anywhere observes fleet-wide
// availability the same way the system-telemetry topic exposes the
// brokers themselves.
type AvailabilityDigest struct {
	// Reporter names the publishing node (a broker, or a tracker when
	// serialized for the /avail admin endpoint).
	Reporter string
	// AtNanos is the reporter's local clock at digest time.
	AtNanos int64
	// Rows carries one entry per tracked entity.
	Rows []AvailabilityRow
}

// maxAvailRows bounds the parsed row list (the wire format stores the
// count in a u16; a reporter with more entities truncates its digest).
const maxAvailRows = 4096

// Marshal serializes the availability digest.
func (ad *AvailabilityDigest) Marshal() []byte {
	var w writer
	w.str(ad.Reporter)
	w.i64(ad.AtNanos)
	rows := ad.Rows
	if len(rows) > maxAvailRows {
		rows = rows[:maxAvailRows]
	}
	w.u16(uint16(len(rows)))
	for _, row := range rows {
		w.str(row.Entity)
		w.u8(row.State)
		w.i64(row.SinceNanos)
		w.u32(row.Transitions)
		w.u32(row.Flaps)
		w.i64(row.DowntimeNanos)
		w.f64(row.Uptime5m)
		w.f64(row.Uptime1h)
		w.f64(row.Uptime24h)
		w.i64(row.MTBFNanos)
		w.i64(row.MTTRNanos)
		w.i64(row.DetectLastNanos)
		w.i64(row.DetectMaxNanos)
		w.f64(row.BudgetRemaining)
		w.f64(row.BurnRate)
		w.u32(row.Breaches)
	}
	return w.buf
}

// UnmarshalAvailabilityDigest parses an availability digest payload.
func UnmarshalAvailabilityDigest(b []byte) (*AvailabilityDigest, error) {
	r := newReader(b)
	ad := &AvailabilityDigest{}
	ad.Reporter = r.str()
	ad.AtNanos = r.i64()
	n := int(r.u16())
	if r.err != nil {
		return nil, r.err
	}
	if n > maxAvailRows {
		return nil, fmt.Errorf("message: availability digest row count %d exceeds %d", n, maxAvailRows)
	}
	for i := 0; i < n && r.err == nil; i++ {
		row := AvailabilityRow{Entity: r.str()}
		row.State = r.u8()
		row.SinceNanos = r.i64()
		row.Transitions = r.u32()
		row.Flaps = r.u32()
		row.DowntimeNanos = r.i64()
		row.Uptime5m = r.f64()
		row.Uptime1h = r.f64()
		row.Uptime24h = r.f64()
		row.MTBFNanos = r.i64()
		row.MTTRNanos = r.i64()
		row.DetectLastNanos = r.i64()
		row.DetectMaxNanos = r.i64()
		row.BudgetRemaining = r.f64()
		row.BurnRate = r.f64()
		row.Breaches = r.u32()
		ad.Rows = append(ad.Rows, row)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return ad, nil
}

// SessionKeyRequest is the payload of a TypeSessionKeyRequest message
// (§6.3 signing-cost optimization): a verifier — an intermediate broker
// or a tracker — that saw a session tag it cannot check asks the
// publisher's hosting broker for the sealed session parameters. The
// requester proves who it is with its X.509 credential; the responder
// seals the parameters to the credential's public key and publishes
// them on DeliveryTopic.
type SessionKeyRequest struct {
	// TraceTopic is the trace topic UUID the session publishes on.
	TraceTopic ident.UUID
	// SessionID names the session whose parameters are requested (zero
	// for "the current session of this topic").
	SessionID [16]byte
	// Requester names the asking principal (a broker name or tracker
	// entity ID).
	Requester ident.EntityID
	// CertDER is the requester's credential; the responder verifies it
	// against the shared CA before sealing anything to it.
	CertDER []byte
	// DeliveryTopic is where the requester listens for the sealed
	// SessionKeyResponse.
	DeliveryTopic string
}

// Marshal serializes the session-key request.
func (sr *SessionKeyRequest) Marshal() []byte {
	var w writer
	w.uuid(sr.TraceTopic)
	w.buf = append(w.buf, sr.SessionID[:]...)
	w.str(string(sr.Requester))
	w.bytes(sr.CertDER)
	w.str(sr.DeliveryTopic)
	return w.buf
}

// UnmarshalSessionKeyRequest parses a session-key request payload.
func UnmarshalSessionKeyRequest(b []byte) (*SessionKeyRequest, error) {
	r := newReader(b)
	sr := &SessionKeyRequest{}
	sr.TraceTopic = r.uuid()
	sid := r.uuid()
	copy(sr.SessionID[:], sid[:])
	sr.Requester = ident.EntityID(r.str())
	sr.CertDER = r.bytes()
	sr.DeliveryTopic = r.str()
	if err := r.done(); err != nil {
		return nil, err
	}
	return sr, nil
}

// SessionKeyResponse is the payload of a TypeSessionKeyResponse message:
// the session parameters sealed to one requester's RSA credential. The
// envelope carrying it is signed with the publisher's RSA delegate key
// and carries the authorization token, so the requester performs the
// one full token + RSA verification of §6.3 on the response itself
// before trusting the session key inside.
type SessionKeyResponse struct {
	// TraceTopic is the trace topic UUID the session publishes on.
	TraceTopic ident.UUID
	// Recipient names the principal the blob is sealed to; other
	// subscribers of a shared delivery topic skip it.
	Recipient ident.EntityID
	// Sealed is secure.SessionParams sealed to the recipient's public
	// key (SealTo/OpenSessionParams).
	Sealed []byte
}

// Marshal serializes the session-key response.
func (sp *SessionKeyResponse) Marshal() []byte {
	var w writer
	w.uuid(sp.TraceTopic)
	w.str(string(sp.Recipient))
	w.bytes(sp.Sealed)
	return w.buf
}

// UnmarshalSessionKeyResponse parses a session-key response payload.
func UnmarshalSessionKeyResponse(b []byte) (*SessionKeyResponse, error) {
	r := newReader(b)
	sp := &SessionKeyResponse{}
	sp.TraceTopic = r.uuid()
	sp.Recipient = ident.EntityID(r.str())
	sp.Sealed = r.bytes()
	if err := r.done(); err != nil {
		return nil, err
	}
	return sp, nil
}

// FabricMemberRow is one broker's row in a fabric membership gossip
// message (PROTOCOL.md §3.9): its name, how to dial it, the monotone
// heartbeat counter, and the Left tombstone for graceful departures.
type FabricMemberRow struct {
	Name      string
	Transport string
	Addr      string
	Heartbeat uint64
	Left      bool
}

// FabricGossip is the payload of a TypeFabricGossip message: one
// broker's anti-entropy membership exchange on the system-fabric topic.
// Receivers fold Rows in by entry-wise heartbeat maximum; Epoch is the
// sender's current ownership-table epoch, carried for observability
// (ownership itself is derived from the converged live member set, not
// from this number).
type FabricGossip struct {
	// Broker names the gossiping broker.
	Broker string
	// Epoch is the sender's ownership-table epoch.
	Epoch uint64
	// Rows is the sender's full membership view, tombstones included.
	Rows []FabricMemberRow
}

// maxFabricRows bounds the parsed membership list; a fabric is a broker
// fleet, not an entity population, so the cap is deliberately small.
const maxFabricRows = 1024

// Marshal serializes the gossip exchange.
func (fg *FabricGossip) Marshal() []byte {
	var w writer
	w.str(fg.Broker)
	w.u64(fg.Epoch)
	rows := fg.Rows
	if len(rows) > maxFabricRows {
		rows = rows[:maxFabricRows]
	}
	w.u16(uint16(len(rows)))
	for _, row := range rows {
		w.str(row.Name)
		w.str(row.Transport)
		w.str(row.Addr)
		w.u64(row.Heartbeat)
		if row.Left {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}
	return w.buf
}

// UnmarshalFabricGossip parses a fabric gossip payload.
func UnmarshalFabricGossip(b []byte) (*FabricGossip, error) {
	r := newReader(b)
	fg := &FabricGossip{}
	fg.Broker = r.str()
	fg.Epoch = r.u64()
	n := int(r.u16())
	if r.err != nil {
		return nil, r.err
	}
	if n > maxFabricRows {
		return nil, fmt.Errorf("message: fabric gossip row count %d exceeds %d", n, maxFabricRows)
	}
	for i := 0; i < n && r.err == nil; i++ {
		row := FabricMemberRow{Name: r.str()}
		row.Transport = r.str()
		row.Addr = r.str()
		row.Heartbeat = r.u64()
		row.Left = r.u8() != 0
		fg.Rows = append(fg.Rows, row)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return fg, nil
}

// TelemetryRow is one series sample in a telemetry snapshot. Counter
// rows carry the delta since the broker's previous snapshot (a fresh
// broker anchors at its current cumulative value), so steady-state
// snapshots stay small under varint encoding; gauge rows carry the
// instantaneous value. Receivers fold counter deltas back into
// cumulative series, re-anchoring when a broker restart makes the
// stream restart from zero.
type TelemetryRow struct {
	// Name is the series name (registry metric or broker-derived).
	Name string
	// Counter distinguishes delta-encoded counters from gauges.
	Counter bool
	// Value is the gauge value or counter delta.
	Value int64
}

// TelemetryAlert is one standing or edge alert row in a telemetry
// snapshot (the anomaly engine's output, PROTOCOL.md §3.10).
type TelemetryAlert struct {
	// Rule names the alert rule.
	Rule string
	// Series is the series the rule watches.
	Series string
	// Firing is true while the alert stands; a clearing edge row
	// reports false once.
	Firing bool
	// SinceNanos identifies the episode: when the firing edge happened.
	SinceNanos int64
	// Value is the observed value at the last evaluation.
	Value float64
}

// TelemetrySnapshot is the payload of a TraceTelemetrySnapshot message:
// one broker's periodic metric sample on the system-telemetry topic,
// assembled fleet-wide by `tracectl top`. Rows are delta-encoded (see
// TelemetryRow); IntervalMillis tells receivers the publisher's cadence
// so they can compute rates and absence windows without configuration.
type TelemetrySnapshot struct {
	// Broker names the publishing broker.
	Broker string
	// AtNanos is the publisher's local clock at sample time.
	AtNanos int64
	// FabricEpoch is the publisher's ownership-table epoch (0 outside a
	// fabric), so assemblers key fleet views by broker/epoch.
	FabricEpoch uint64
	// IntervalMillis is the publisher's telemetry period.
	IntervalMillis uint32
	// Rows carries one entry per series.
	Rows []TelemetryRow
	// Alerts carries the standing alerts plus this tick's edges.
	Alerts []TelemetryAlert
}

// maxTelemetryRows bounds the parsed row and alert lists (the wire
// format stores each count in a u16; a publisher with more series
// truncates).
const maxTelemetryRows = 4096

// Marshal serializes the telemetry snapshot.
func (ts *TelemetrySnapshot) Marshal() []byte {
	var w writer
	w.str(ts.Broker)
	w.i64(ts.AtNanos)
	w.u64(ts.FabricEpoch)
	w.u32(ts.IntervalMillis)
	rows := ts.Rows
	if len(rows) > maxTelemetryRows {
		rows = rows[:maxTelemetryRows]
	}
	w.u16(uint16(len(rows)))
	for _, row := range rows {
		w.str(row.Name)
		if row.Counter {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.varint(row.Value)
	}
	alerts := ts.Alerts
	if len(alerts) > maxTelemetryRows {
		alerts = alerts[:maxTelemetryRows]
	}
	w.u16(uint16(len(alerts)))
	for _, al := range alerts {
		w.str(al.Rule)
		w.str(al.Series)
		if al.Firing {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.i64(al.SinceNanos)
		w.f64(al.Value)
	}
	return w.buf
}

// UnmarshalTelemetrySnapshot parses a telemetry snapshot payload.
func UnmarshalTelemetrySnapshot(b []byte) (*TelemetrySnapshot, error) {
	r := newReader(b)
	ts := &TelemetrySnapshot{}
	ts.Broker = r.str()
	ts.AtNanos = r.i64()
	ts.FabricEpoch = r.u64()
	ts.IntervalMillis = r.u32()
	n := int(r.u16())
	if r.err != nil {
		return nil, r.err
	}
	if n > maxTelemetryRows {
		return nil, fmt.Errorf("message: telemetry row count %d exceeds %d", n, maxTelemetryRows)
	}
	for i := 0; i < n && r.err == nil; i++ {
		row := TelemetryRow{Name: r.str()}
		row.Counter = r.u8() != 0
		row.Value = r.varint()
		ts.Rows = append(ts.Rows, row)
	}
	na := int(r.u16())
	if r.err != nil {
		return nil, r.err
	}
	if na > maxTelemetryRows {
		return nil, fmt.Errorf("message: telemetry alert count %d exceeds %d", na, maxTelemetryRows)
	}
	for i := 0; i < na && r.err == nil; i++ {
		al := TelemetryAlert{Rule: r.str()}
		al.Series = r.str()
		al.Firing = r.u8() != 0
		al.SinceNanos = r.i64()
		al.Value = r.f64()
		ts.Alerts = append(ts.Alerts, al)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return ts, nil
}
