package message

import (
	"fmt"

	"entitytrace/internal/ident"
	"entitytrace/internal/topic"
	"entitytrace/internal/wire"
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
	var w wire.Writer
	w.Str(string(rg.Entity))
	w.Bytes(rg.CertDER)
	w.Bytes(rg.Advertisement)
	w.Bool(rg.SecureTraces)
	w.Bool(rg.SymmetricChannel)
	return w.Buf
}

// UnmarshalRegistration parses a Registration payload.
func UnmarshalRegistration(b []byte) (*Registration, error) {
	r := wire.NewReader(b, wire.MaxField)
	rg := &Registration{}
	rg.Entity = ident.EntityID(r.Str())
	rg.CertDER = r.Bytes()
	rg.Advertisement = r.Bytes()
	rg.SecureTraces = r.Bool()
	rg.SymmetricChannel = r.Bool()
	if err := r.Done(); err != nil {
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
	var w wire.Writer
	w.Raw(rr.RequestID[:])
	w.Raw(rr.SessionID[:])
	w.Bytes(rr.BrokerCert)
	return w.Buf
}

// UnmarshalRegistrationResponse parses a response body (post-opening).
func UnmarshalRegistrationResponse(b []byte) (*RegistrationResponse, error) {
	r := wire.NewReader(b, wire.MaxField)
	rr := &RegistrationResponse{}
	rr.RequestID = r.UUID()
	rr.SessionID = r.UUID()
	rr.BrokerCert = r.Bytes()
	if err := r.Done(); err != nil {
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
	var w wire.Writer
	w.U64(p.Number)
	w.I64(p.BrokerTimestamp)
	return w.Buf
}

// UnmarshalPing parses a Ping payload.
func UnmarshalPing(b []byte) (*Ping, error) {
	r := wire.NewReader(b, wire.MaxField)
	p := &Ping{}
	p.Number = r.U64()
	p.BrokerTimestamp = r.I64()
	if err := r.Done(); err != nil {
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
	var w wire.Writer
	w.U64(p.Number)
	w.I64(p.BrokerTimestamp)
	w.I64(p.EntityTimestamp)
	w.U8(uint8(p.State))
	return w.Buf
}

// UnmarshalPingResponse parses a PingResponse payload.
func UnmarshalPingResponse(b []byte) (*PingResponse, error) {
	r := wire.NewReader(b, wire.MaxField)
	p := &PingResponse{}
	p.Number = r.U64()
	p.BrokerTimestamp = r.I64()
	p.EntityTimestamp = r.I64()
	p.State = EntityState(r.U8())
	if err := r.Done(); err != nil {
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
	var w wire.Writer
	w.U8(uint8(s.From))
	w.U8(uint8(s.To))
	w.I64(s.At)
	return w.Buf
}

// UnmarshalStateReport parses a StateReport payload.
func UnmarshalStateReport(b []byte) (*StateReport, error) {
	r := wire.NewReader(b, wire.MaxField)
	s := &StateReport{}
	s.From = EntityState(r.U8())
	s.To = EntityState(r.U8())
	s.At = r.I64()
	if err := r.Done(); err != nil {
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
	var w wire.Writer
	w.F64(l.CPUPercent)
	w.U64(l.MemoryUsedBytes)
	w.U64(l.MemoryTotalBytes)
	w.F64(l.Workload)
	w.I64(l.At)
	return w.Buf
}

// UnmarshalLoadReport parses a LoadReport payload.
func UnmarshalLoadReport(b []byte) (*LoadReport, error) {
	r := wire.NewReader(b, wire.MaxField)
	l := &LoadReport{}
	l.CPUPercent = r.F64()
	l.MemoryUsedBytes = r.U64()
	l.MemoryTotalBytes = r.U64()
	l.Workload = r.F64()
	l.At = r.I64()
	if err := r.Done(); err != nil {
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
	var w wire.Writer
	w.F64(n.LossRate)
	w.F64(n.MeanRTTMillis)
	w.F64(n.OutOfOrderRate)
	w.F64(n.BandwidthBps)
	w.U32(n.SampleCount)
	w.I64(n.At)
	return w.Buf
}

// UnmarshalNetworkReport parses a NetworkReport payload.
func UnmarshalNetworkReport(b []byte) (*NetworkReport, error) {
	r := wire.NewReader(b, wire.MaxField)
	n := &NetworkReport{}
	n.LossRate = r.F64()
	n.MeanRTTMillis = r.F64()
	n.OutOfOrderRate = r.F64()
	n.BandwidthBps = r.F64()
	n.SampleCount = r.U32()
	n.At = r.I64()
	if err := r.Done(); err != nil {
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
	var w wire.Writer
	w.Raw(g.TraceTopic[:])
	w.Bool(g.Secured)
	w.Str(g.ResponseTopic)
	return w.Buf
}

// UnmarshalGaugeInterestProbe parses a probe payload.
func UnmarshalGaugeInterestProbe(b []byte) (*GaugeInterestProbe, error) {
	r := wire.NewReader(b, wire.MaxField)
	g := &GaugeInterestProbe{}
	g.TraceTopic = r.UUID()
	g.Secured = r.Bool()
	g.ResponseTopic = r.Str()
	if err := r.Done(); err != nil {
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
	var w wire.Writer
	w.Str(string(ir.Tracker))
	w.Raw(ir.TraceTopic[:])
	w.U8(uint8(ir.Classes))
	w.Bytes(ir.CertDER)
	w.Str(ir.KeyDeliveryTopic)
	return w.Buf
}

// UnmarshalInterestResponse parses an interest response payload.
func UnmarshalInterestResponse(b []byte) (*InterestResponse, error) {
	r := wire.NewReader(b, wire.MaxField)
	ir := &InterestResponse{}
	ir.Tracker = ident.EntityID(r.Str())
	ir.TraceTopic = r.UUID()
	ir.Classes = topic.ClassSet(r.U8())
	ir.CertDER = r.Bytes()
	ir.KeyDeliveryTopic = r.Str()
	if err := r.Done(); err != nil {
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
	var w wire.Writer
	w.U8(tk.Purpose)
	w.Bytes(tk.Key)
	w.Str(tk.Algorithm)
	w.Str(tk.Padding)
	return w.Buf
}

// UnmarshalTraceKey parses a trace key body (post-opening).
func UnmarshalTraceKey(b []byte) (*TraceKey, error) {
	r := wire.NewReader(b, wire.MaxField)
	tk := &TraceKey{}
	tk.Purpose = r.U8()
	tk.Key = r.Bytes()
	tk.Algorithm = r.Str()
	tk.Padding = r.Str()
	if err := r.Done(); err != nil {
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
	var w wire.Writer
	w.Bytes(d.TokenBytes)
	w.Bytes(d.DelegatePrivDER)
	return w.Buf
}

// UnmarshalDelegation parses a delegation body (post-opening).
func UnmarshalDelegation(b []byte) (*Delegation, error) {
	r := wire.NewReader(b, wire.MaxField)
	d := &Delegation{}
	d.TokenBytes = r.Bytes()
	d.DelegatePrivDER = r.Bytes()
	if err := r.Done(); err != nil {
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
	var w wire.Writer
	w.Str(string(te.Entity))
	w.Raw(te.TraceTopic[:])
	w.Str(te.Detail)
	w.Bytes(te.Body)
	return w.Buf
}

// UnmarshalTraceEvent parses a trace event payload.
func UnmarshalTraceEvent(b []byte) (*TraceEvent, error) {
	r := wire.NewReader(b, wire.MaxField)
	te := &TraceEvent{}
	te.Entity = ident.EntityID(r.Str())
	te.TraceTopic = r.UUID()
	te.Detail = r.Str()
	te.Body = r.Bytes()
	if err := r.Done(); err != nil {
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
	var w wire.Writer
	w.U16(er.Code)
	w.Str(er.Detail)
	return w.Buf
}

// UnmarshalErrorReport parses an error report payload.
func UnmarshalErrorReport(b []byte) (*ErrorReport, error) {
	r := wire.NewReader(b, wire.MaxField)
	er := &ErrorReport{}
	er.Code = r.U16()
	er.Detail = r.Str()
	if err := r.Done(); err != nil {
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

// AvailabilityDigest is one reporter's availability ledger snapshot:
// the rows a broker's telemetry snapshot carries (TelemetrySnapshot.Avail,
// reassembled per broker by tracectl) and the document the /avail admin
// endpoint serves as JSON.
type AvailabilityDigest struct {
	// Reporter names the reporting node (a broker, or a tracker when
	// serialized for the /avail admin endpoint).
	Reporter string
	// AtNanos is the reporter's local clock at digest time.
	AtNanos int64
	// Rows carries one entry per tracked entity.
	Rows []AvailabilityRow
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
	var w wire.Writer
	w.Raw(sr.TraceTopic[:])
	w.Buf = append(w.Buf, sr.SessionID[:]...)
	w.Str(string(sr.Requester))
	w.Bytes(sr.CertDER)
	w.Str(sr.DeliveryTopic)
	return w.Buf
}

// UnmarshalSessionKeyRequest parses a session-key request payload.
func UnmarshalSessionKeyRequest(b []byte) (*SessionKeyRequest, error) {
	r := wire.NewReader(b, wire.MaxField)
	sr := &SessionKeyRequest{}
	sr.TraceTopic = r.UUID()
	sid := r.UUID()
	copy(sr.SessionID[:], sid[:])
	sr.Requester = ident.EntityID(r.Str())
	sr.CertDER = r.Bytes()
	sr.DeliveryTopic = r.Str()
	if err := r.Done(); err != nil {
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
	var w wire.Writer
	w.Raw(sp.TraceTopic[:])
	w.Str(string(sp.Recipient))
	w.Bytes(sp.Sealed)
	return w.Buf
}

// UnmarshalSessionKeyResponse parses a session-key response payload.
func UnmarshalSessionKeyResponse(b []byte) (*SessionKeyResponse, error) {
	r := wire.NewReader(b, wire.MaxField)
	sp := &SessionKeyResponse{}
	sp.TraceTopic = r.UUID()
	sp.Recipient = ident.EntityID(r.Str())
	sp.Sealed = r.Bytes()
	if err := r.Done(); err != nil {
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
	var w wire.Writer
	w.Str(fg.Broker)
	w.U64(fg.Epoch)
	rows := fg.Rows
	if len(rows) > maxFabricRows {
		rows = rows[:maxFabricRows]
	}
	w.U16(uint16(len(rows)))
	for _, row := range rows {
		w.Str(row.Name)
		w.Str(row.Transport)
		w.Str(row.Addr)
		w.U64(row.Heartbeat)
		w.Bool(row.Left)
	}
	return w.Buf
}

// UnmarshalFabricGossip parses a fabric gossip payload.
func UnmarshalFabricGossip(b []byte) (*FabricGossip, error) {
	r := wire.NewReader(b, wire.MaxField)
	fg := &FabricGossip{}
	fg.Broker = r.Str()
	fg.Epoch = r.U64()
	n := int(r.U16())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > maxFabricRows {
		return nil, fmt.Errorf("message: fabric gossip row count %d exceeds %d", n, maxFabricRows)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		row := FabricMemberRow{Name: r.Str()}
		row.Transport = r.Str()
		row.Addr = r.Str()
		row.Heartbeat = r.U64()
		row.Left = r.U8() != 0
		fg.Rows = append(fg.Rows, row)
	}
	if err := r.Done(); err != nil {
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
	// Avail carries the broker's availability ledger, one row per
	// hosted entity (empty when the broker tracks none).
	Avail []AvailabilityRow
}

// maxTelemetryRows bounds each of the parsed row, alert and
// availability-row lists (the wire format stores each count in a u16; a
// publisher with more series or hosted entities truncates).
const maxTelemetryRows = 4096

// Marshal serializes the telemetry snapshot.
func (ts *TelemetrySnapshot) Marshal() []byte {
	var w wire.Writer
	w.Str(ts.Broker)
	w.I64(ts.AtNanos)
	w.U64(ts.FabricEpoch)
	w.U32(ts.IntervalMillis)
	rows := ts.Rows
	if len(rows) > maxTelemetryRows {
		rows = rows[:maxTelemetryRows]
	}
	w.U16(uint16(len(rows)))
	for _, row := range rows {
		w.Str(row.Name)
		w.Bool(row.Counter)
		w.Varint(row.Value)
	}
	alerts := ts.Alerts
	if len(alerts) > maxTelemetryRows {
		alerts = alerts[:maxTelemetryRows]
	}
	w.U16(uint16(len(alerts)))
	for _, al := range alerts {
		w.Str(al.Rule)
		w.Str(al.Series)
		w.Bool(al.Firing)
		w.I64(al.SinceNanos)
		w.F64(al.Value)
	}
	avail := ts.Avail
	if len(avail) > maxTelemetryRows {
		avail = avail[:maxTelemetryRows]
	}
	w.U16(uint16(len(avail)))
	for _, row := range avail {
		w.Str(row.Entity)
		w.U8(row.State)
		w.I64(row.SinceNanos)
		w.U32(row.Transitions)
		w.U32(row.Flaps)
		w.I64(row.DowntimeNanos)
		w.F64(row.Uptime5m)
		w.F64(row.Uptime1h)
		w.F64(row.Uptime24h)
		w.I64(row.MTBFNanos)
		w.I64(row.MTTRNanos)
		w.I64(row.DetectLastNanos)
		w.I64(row.DetectMaxNanos)
		w.F64(row.BudgetRemaining)
		w.F64(row.BurnRate)
		w.U32(row.Breaches)
	}
	return w.Buf
}

// UnmarshalTelemetrySnapshot parses a telemetry snapshot payload.
func UnmarshalTelemetrySnapshot(b []byte) (*TelemetrySnapshot, error) {
	r := wire.NewReader(b, wire.MaxField)
	ts := &TelemetrySnapshot{}
	ts.Broker = r.Str()
	ts.AtNanos = r.I64()
	ts.FabricEpoch = r.U64()
	ts.IntervalMillis = r.U32()
	n := int(r.U16())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > maxTelemetryRows {
		return nil, fmt.Errorf("message: telemetry row count %d exceeds %d", n, maxTelemetryRows)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		row := TelemetryRow{Name: r.Str()}
		row.Counter = r.U8() != 0
		row.Value = r.Varint()
		ts.Rows = append(ts.Rows, row)
	}
	na := int(r.U16())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if na > maxTelemetryRows {
		return nil, fmt.Errorf("message: telemetry alert count %d exceeds %d", na, maxTelemetryRows)
	}
	for i := 0; i < na && r.Err() == nil; i++ {
		al := TelemetryAlert{Rule: r.Str()}
		al.Series = r.Str()
		al.Firing = r.U8() != 0
		al.SinceNanos = r.I64()
		al.Value = r.F64()
		ts.Alerts = append(ts.Alerts, al)
	}
	nv := int(r.U16())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nv > maxTelemetryRows {
		return nil, fmt.Errorf("message: telemetry avail row count %d exceeds %d", nv, maxTelemetryRows)
	}
	for i := 0; i < nv && r.Err() == nil; i++ {
		row := AvailabilityRow{Entity: r.Str()}
		row.State = r.U8()
		row.SinceNanos = r.I64()
		row.Transitions = r.U32()
		row.Flaps = r.U32()
		row.DowntimeNanos = r.I64()
		row.Uptime5m = r.F64()
		row.Uptime1h = r.F64()
		row.Uptime24h = r.F64()
		row.MTBFNanos = r.I64()
		row.MTTRNanos = r.I64()
		row.DetectLastNanos = r.I64()
		row.DetectMaxNanos = r.I64()
		row.BudgetRemaining = r.F64()
		row.BurnRate = r.F64()
		row.Breaches = r.U32()
		ts.Avail = append(ts.Avail, row)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return ts, nil
}
