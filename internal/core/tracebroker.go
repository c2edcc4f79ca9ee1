package core

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"entitytrace/internal/avail"
	"entitytrace/internal/broker"
	"entitytrace/internal/clock"
	"entitytrace/internal/credential"
	"entitytrace/internal/failure"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/obs/timeseries"
	"entitytrace/internal/secure"
	"entitytrace/internal/tdn"
	"entitytrace/internal/token"
	"entitytrace/internal/topic"
)

// Trace-manager metrics (process-wide; the paper's §3 broker duties).
// Rejection reasons are pre-registered so /metrics shows them at zero.
var (
	mRegistrations    = obs.Default.Counter("core_registrations_total")
	mRegRejBadPayload = obs.Default.Counter(obs.WithLabel("core_registrations_rejected_total", "reason", "bad_payload"))
	mRegRejBadCred    = obs.Default.Counter(obs.WithLabel("core_registrations_rejected_total", "reason", "bad_credential"))
	mRegRejBadSig     = obs.Default.Counter(obs.WithLabel("core_registrations_rejected_total", "reason", "bad_signature"))
	mRegRejBadAd      = obs.Default.Counter(obs.WithLabel("core_registrations_rejected_total", "reason", "bad_advertisement"))
	mRegRejUnauth     = obs.Default.Counter(obs.WithLabel("core_registrations_rejected_total", "reason", "unauthorized"))
	mRegRejInternal   = obs.Default.Counter(obs.WithLabel("core_registrations_rejected_total", "reason", "internal"))
	mSessionsActive   = obs.Default.Gauge("core_sessions_active")
	mTracesPublished  = obs.Default.Counter("traces_published_total")
	mTracesSuppressed = obs.Default.Counter(obs.WithLabel("traces_suppressed_total", "reason", "no_interest"))
	mGaugeRounds      = obs.Default.Counter("gauge_interest_rounds_total")
	mKeyDeliveries    = obs.Default.Counter("key_deliveries_total")
	mPingRTT          = obs.Default.Histogram("ping_rtt_ms", nil)
	// §6.3 session-key negotiation traffic.
	mSessionKeyRequests   = obs.Default.Counter("session_key_requests_total")
	mSessionKeyDeliveries = obs.Default.Counter("session_key_deliveries_total")
	// Recipients evicted from a full sessionKeyRecips table to admit a
	// newer verifier; evictees renegotiate on the next unknown-session
	// drop instead of receiving proactive rekey pushes.
	mSessionKeyRecipsEvicted = obs.Default.Counter("session_key_recips_evicted_total")
	// Refused SESSION_KEY_REQUESTs by reason: rate-limited before any
	// crypto, malformed/unsafe delivery topic, credential failure, or a
	// valid credential with no standing for this topic (neither an
	// interested tracker nor a broker-role certificate).
	mSessKeyRejRate   = obs.Default.Counter(obs.WithLabel("session_key_requests_rejected_total", "reason", "rate_limited"))
	mSessKeyRejTopic  = obs.Default.Counter(obs.WithLabel("session_key_requests_rejected_total", "reason", "bad_delivery_topic"))
	mSessKeyRejCred   = obs.Default.Counter(obs.WithLabel("session_key_requests_rejected_total", "reason", "bad_credential"))
	mSessKeyRejUnauth = obs.Default.Counter(obs.WithLabel("session_key_requests_rejected_total", "reason", "unauthorized"))
)

// netMetricsEvery publishes NETWORK_METRICS after every n-th answered
// ping.
const netMetricsEvery = 10

// BrokerConfig configures a TraceBroker.
type BrokerConfig struct {
	// Broker is the pub/sub node this trace manager lives in.
	Broker *broker.Broker
	// Identity is the broker's credential (with private key); the
	// registration response carries its certificate so entities can seal
	// keys to it (§3.2, §6.3).
	Identity *credential.Identity
	// Detector tunes failure detection (zero value selects
	// failure.DefaultConfig).
	Detector failure.Config
	// GaugeInterval is how often GUAGE_INTEREST probes are published
	// (§3.5). Zero selects 10 s.
	GaugeInterval time.Duration
	// InterestTTL is how long a tracker's interest registration lasts
	// without renewal. Zero selects 3 GaugeIntervals.
	InterestTTL time.Duration
	// Avail is the template of the broker-side availability ledger, fed
	// by every availability trace the broker originates (zero-value
	// fields take the avail.New defaults; the ledger always runs on the
	// broker's clock). The ledger exists exactly when telemetry is on.
	Avail avail.Config
	// TelemetryInterval, when positive, samples the hosting broker's
	// health into a per-broker time-series store every tick and publishes
	// a delta-encoded TELEMETRY_SNAPSHOT, carrying the availability
	// ledger's rows too, on the system-telemetry topic
	// (topic.SystemTelemetry, PROTOCOL.md §3.10). Zero disables the
	// telemetry plane and the ledger.
	TelemetryInterval time.Duration
	// TelemetryOptions tunes the store's retention (zero value selects
	// 15m at 1s fine plus 2h at 15s downsampled).
	TelemetryOptions timeseries.Options
	// TelemetryRules, when non-empty, runs the anomaly engine over the
	// store every telemetry tick; edges are logged and carried as alert
	// rows in the published snapshots.
	TelemetryRules []timeseries.Rule
	// Guard is the trace authorization guard whose Admit the hosting
	// broker node was configured with (required). Its verifier validates
	// entity and tracker credentials, and its resolver resolves trace
	// topics (registrations prime it when it is a *CachingResolver). The
	// manager binds its session-key requester to it, installs hosted
	// sessions' keys into its store, validates delegations and session-key
	// responses with it, and reports its cache statistics in telemetry
	// snapshots.
	//
	// A guard with a session store turns on the §6.3 signing-cost
	// optimization: hosted sessions mint per-(token, topic) symmetric
	// session keys, sign steady-state traces with HMAC session tags instead
	// of RSA, and distribute the keys sealed to credentialed verifiers
	// (trackers via their key-delivery topics, other brokers on request).
	Guard *Guard
	// Log is the structured logger (nil silences diagnostics); it is
	// also propagated into the failure detector unless Detector.Log is
	// set explicitly.
	Log *slog.Logger
}

// TraceBroker performs the broker-side responsibilities of §3.3: it
// accepts trace registrations, polls traced entities, detects failures,
// gauges tracker interest and publishes traces on the Table 2 topics.
type TraceBroker struct {
	cfg      BrokerConfig
	log      *slog.Logger
	clk      clock.Clock     // the hosting broker's
	signer   *secure.Signer  // broker credential signer (responses)
	avail    *avail.Ledger   // nil when telemetry is off
	tel      *telemetryPlane // nil when telemetry is off
	cancelRg func()

	mu       sync.Mutex
	sessions map[ident.SessionID]*session
	byEntity map[ident.EntityID]ident.SessionID
	closed   bool
	done     chan struct{}
	wg       sync.WaitGroup

	// Session-key request state (§6.3): this broker asks the hosting
	// broker of a trace topic's publisher for the sealed parameters when
	// it first carries a session-tagged class of the topic for a
	// subscriber — at most once per trace topic per
	// sessionRequestMinInterval — and, as the fallback, when its guard
	// sees a tag for a session it has not installed — at most once per
	// session ID per sessionRequestMinInterval.
	sessReqMu        sync.Mutex
	sessReqLast      *bounded[[secure.SessionIDLen]byte, time.Time]
	sessReqTopicLast *bounded[ident.UUID, time.Time]
	cancelSk         func()
}

// session is the broker-side state for one traced entity (§3.2-§3.3).
type session struct {
	tb *TraceBroker

	entity     ident.EntityID
	entityPub  *rsa.PublicKey
	entityHash secure.Hash
	traceTopic ident.UUID
	sessionID  ident.SessionID
	ad         *tdn.Advertisement

	det *failure.Detector

	secured   bool // §5.1 requested
	symmetric bool // §6.3 requested

	mu         sync.Mutex
	chanKey    *secure.SymmetricKey // §6.3 entity channel key
	traceKey   *secure.SymmetricKey // §5.1 trace key
	tokenBytes []byte
	delegate   *secure.Signer
	active     bool
	silent     bool
	ended      bool
	state      message.EntityState
	answered   int
	pingBytes  uint64 // wire bytes of the last ping/response exchange
	// interest[class][tracker] = expiry
	interest map[topic.TraceClass]map[ident.EntityID]time.Time
	// keyDelivered tracks which trackers already hold the trace key.
	keyDelivered map[ident.EntityID]bool

	// sp, when session keys are enabled, signs steady-state traces with
	// HMAC session tags (§6.3); sessionKeyRecips remembers every verifier
	// the session parameters were delivered to (tracker or peer broker),
	// with the session ID it last received — interest rounds re-deliver on
	// ID mismatch, and a rekey proactively pushes the fresh parameters to
	// all of them so the publisher leaves the RSA fallback quickly.
	sp               *SessionPublisher
	sessionKeyRecips *bounded[ident.EntityID, *sessionKeyRecipient]

	// Responder-side SESSION_KEY_REQUEST rate limiting (§6.3): at most
	// one admitted request per requester and sessionKeyRespBurst per
	// session within each sessionRequestMinInterval window, enforced
	// before any credential or RSA work.
	skReqLast     *bounded[ident.EntityID, time.Time]
	skWindowStart time.Time
	skWindowCount int

	entityToBroker topic.Topic
	brokerToEntity topic.Topic
	cancelSubs     []func()
	done           chan struct{}
}

// sessionKeyRecipient records one verifier that holds (or held) this
// session's sealed parameters: the session ID it last received plus the
// delivery topic and credential key needed to push a fresh seal after a
// rekey.
type sessionKeyRecipient struct {
	id            [secure.SessionIDLen]byte
	deliveryTopic string
	pub           *rsa.PublicKey
}

// sessionKeyMaxRecipients bounds the per-session recipient memory; a
// full table evicts its longest-idle recipient to admit a new verifier
// (counted by session_key_recips_evicted_total) — the evictee simply
// renegotiates on its next unknown-session drop instead of receiving
// proactive rekey pushes.
const sessionKeyMaxRecipients = 256

// sessionKeyRespBurst caps how many SESSION_KEY_REQUESTs one session
// answers per sessionRequestMinInterval window, regardless of requester
// identity — cycling requester names must not turn into unbounded
// credential-verify + RSA-seal work.
const sessionKeyRespBurst = 8

// sessionKeyReqTrack bounds the per-requester rate-limit table; a full
// table forgets the requester admitted longest ago. At most
// sessionKeyRespBurst requesters are admitted per window, so every
// entry it forgets is older than the window and limits nothing.
const sessionKeyReqTrack = 1024

// NewTraceBroker attaches a trace manager to a broker node. Call Start
// to begin accepting registrations.
func NewTraceBroker(cfg BrokerConfig) (*TraceBroker, error) {
	if cfg.Broker == nil || cfg.Identity == nil || cfg.Identity.Private == nil || cfg.Guard == nil {
		return nil, errors.New("core: TraceBroker needs Broker, Identity (with key) and Guard")
	}
	if cfg.Detector == (failure.Config{}) {
		cfg.Detector = failure.DefaultConfig()
	}
	log := obs.OrDiscard(cfg.Log)
	if cfg.Detector.Log == nil {
		cfg.Detector.Log = log
	}
	if err := cfg.Detector.Validate(); err != nil {
		return nil, err
	}
	if cfg.GaugeInterval <= 0 {
		cfg.GaugeInterval = 10 * time.Second
	}
	if cfg.InterestTTL <= 0 {
		cfg.InterestTTL = 3 * cfg.GaugeInterval
	}
	signer, err := secure.NewSigner(cfg.Identity.Private, secure.SHA256)
	if err != nil {
		return nil, err
	}
	tb := &TraceBroker{
		cfg:      cfg,
		log:      log,
		clk:      cfg.Broker.Clock(),
		signer:   signer,
		sessions: make(map[ident.SessionID]*session),
		byEntity: make(map[ident.EntityID]ident.SessionID),
		done:     make(chan struct{}),
	}
	if tb.sessionKeys() {
		tb.sessReqLast = newBounded[[secure.SessionIDLen]byte, time.Time](DefaultSessionStoreSize)
		tb.sessReqTopicLast = newBounded[ident.UUID, time.Time](DefaultSessionStoreSize)
		cfg.Guard.OnUnknownSession(tb.requestSessionKey)
	}
	if cfg.TelemetryInterval > 0 {
		acfg := cfg.Avail
		acfg.Clock = tb.clk
		tb.avail = avail.New(acfg)
		tb.tel = &telemetryPlane{
			store: timeseries.New(cfg.TelemetryOptions),
			last:  make(map[string]int64),
		}
		if len(cfg.TelemetryRules) > 0 {
			tb.tel.engine = timeseries.NewEngine(tb.tel.store, cfg.TelemetryRules, log)
		}
	}
	return tb, nil
}

// Sessions returns the guard's session-key store (nil when session
// keys are disabled); tests and chaos harnesses inspect and poison it.
func (tb *TraceBroker) Sessions() *SessionStore { return tb.cfg.Guard.sessions }

// sessionKeys reports whether §6.3 session keys are on: exactly when the
// guard holds a session store to verify the tags they produce.
func (tb *TraceBroker) sessionKeys() bool { return tb.cfg.Guard.sessions != nil }

// Avail returns the broker-side availability ledger (nil when
// telemetry is off); admin endpoints serve it.
func (tb *TraceBroker) Avail() *avail.Ledger { return tb.avail }

// Resolver returns the resolver the trace broker validates tokens with.
func (tb *TraceBroker) Resolver() AdResolver { return tb.cfg.Guard.resolver }

// Start subscribes to the registration topic (§3.2), begins watching for
// client disconnects (§3.3 DISCONNECT traces) and, with session keys on,
// for subscriptions to session-tagged classes, and, when telemetry is
// on, starts the periodic telemetry publisher.
func (tb *TraceBroker) Start() {
	tb.cancelRg = tb.cfg.Broker.SubscribeLocal(topic.Registration(), tb.handleRegistration)
	tb.cfg.Broker.OnClientDisconnect(tb.handleDisconnect)
	if tb.sessionKeys() {
		// Sealed session-key responses for this broker's own renegotiation
		// requests (§6.3) arrive on its delivery topic.
		tb.cancelSk = tb.cfg.Broker.SubscribeLocal(
			topic.SessionKeyDelivery(tb.cfg.Broker.Name()), tb.handleSessionKeyResponse)
		tb.cfg.Broker.OnSubscribe(tb.prefetchSessionKey)
	}
	if tb.tel != nil {
		tb.periodic(tb.cfg.TelemetryInterval, tb.PublishTelemetry)
	}
}

// periodic calls fn every interval on the manager's clock until Close.
// The telemetry publisher runs on it; it needs no token machinery
// (broker-constrained Publish-Only, non-derivative topic), so its
// authenticity rests on broker-link trust, like pings.
func (tb *TraceBroker) periodic(interval time.Duration, fn func()) {
	tb.wg.Add(1)
	go func() {
		defer tb.wg.Done()
		for {
			timer := tb.clk.NewTimer(interval)
			select {
			case <-timer.C():
				fn()
			case <-tb.done:
				timer.Stop()
				return
			}
		}
	}()
}

// handleDisconnect publishes a DISCONNECT trace when a traced entity's
// broker connection drops, so trackers learn immediately; the adaptive
// ping machinery then confirms with FAILURE_SUSPICION/FAILED (or the
// entity reconnects and re-registers). Sessions that already ended
// (graceful SHUTDOWN closes the connection too) publish nothing.
func (tb *TraceBroker) handleDisconnect(entity ident.EntityID) {
	tb.mu.Lock()
	sid, ok := tb.byEntity[entity]
	var s *session
	if ok {
		s = tb.sessions[sid]
	}
	tb.mu.Unlock()
	if s == nil {
		return
	}
	s.mu.Lock()
	ended, active := s.ended, s.active
	s.mu.Unlock()
	if ended || !active {
		return
	}
	s.publishTraceAlways(nil, message.TraceDisconnect, topic.ClassChangeNotifications,
		"entity connection dropped", nil)
}

// Close ends every session and stops the manager.
func (tb *TraceBroker) Close() {
	tb.mu.Lock()
	if tb.closed {
		tb.mu.Unlock()
		return
	}
	tb.closed = true
	close(tb.done)
	sessions := make([]*session, 0, len(tb.sessions))
	for _, s := range tb.sessions {
		sessions = append(sessions, s)
	}
	tb.mu.Unlock()
	if tb.cancelRg != nil {
		tb.cancelRg()
	}
	if tb.cancelSk != nil {
		tb.cancelSk()
	}
	for _, s := range sessions {
		s.end("", false)
	}
	tb.wg.Wait()
}

// SessionCount reports active sessions.
func (tb *TraceBroker) SessionCount() int {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return len(tb.sessions)
}

// handleRegistration implements the §3.2 broker-side registration flow.
func (tb *TraceBroker) handleRegistration(env *message.Envelope) {
	reg, err := message.UnmarshalRegistration(env.Payload)
	if err != nil {
		mRegRejBadPayload.Inc()
		tb.log.Warn("registration rejected", "reason", "bad_payload", "err", err)
		return
	}
	respond := func(code uint16, detail string) {
		tp, terr := registrationResponseTopic(reg.Entity, env.RequestID)
		if terr != nil {
			return
		}
		er := &message.ErrorReport{Code: code, Detail: detail}
		out := message.New(message.TypeError, tp, "", er.Marshal())
		out.RequestID = env.RequestID
		_ = tb.cfg.Broker.Publish(out)
	}
	// Verify the credential chains to the CA and names the entity.
	cred := &credential.Credential{Entity: reg.Entity, Cert: reg.CertDER}
	entityPub, err := tb.cfg.Guard.verifier.Verify(cred)
	if err != nil {
		mRegRejBadCred.Inc()
		tb.log.Warn("registration rejected", "entity", reg.Entity, "reason", "bad_credential", "err", err)
		respond(message.ErrCodeBadCredential, err.Error())
		return
	}
	// Verify proof of private-key possession: decrypt the signature with
	// the entity's public key and compare digests (§3.2).
	entityHash := secure.SHA1
	if err := env.VerifySignature(entityPub, secure.SHA1); err != nil {
		if err2 := env.VerifySignature(entityPub, secure.SHA256); err2 != nil {
			mRegRejBadSig.Inc()
			tb.log.Warn("registration rejected", "entity", reg.Entity, "reason", "bad_signature", "err", err)
			respond(message.ErrCodeBadSignature, err.Error())
			return
		}
		entityHash = secure.SHA256
	}
	// Verify the trace-topic advertisement establishes provenance.
	ad, err := tdn.UnmarshalAdvertisement(reg.Advertisement)
	if err != nil {
		mRegRejBadAd.Inc()
		respond(message.ErrCodeBadAdvertisement, err.Error())
		return
	}
	now := tb.clk.Now()
	if _, err := ad.Verify(tb.cfg.Guard.verifier, now); err != nil {
		mRegRejBadAd.Inc()
		tb.log.Warn("registration rejected", "entity", reg.Entity, "reason", "bad_advertisement", "err", err)
		respond(message.ErrCodeBadAdvertisement, err.Error())
		return
	}
	if ad.Owner != reg.Entity {
		mRegRejUnauth.Inc()
		respond(message.ErrCodeUnauthorized,
			fmt.Sprintf("advertisement owned by %q, registration from %q", ad.Owner, reg.Entity))
		return
	}

	det, err := failure.NewDetector(tb.cfg.Detector, now)
	if err != nil {
		mRegRejInternal.Inc()
		respond(message.ErrCodeInternal, err.Error())
		return
	}
	s := &session{
		tb:           tb,
		entity:       reg.Entity,
		entityPub:    entityPub,
		entityHash:   entityHash,
		traceTopic:   ad.TopicID,
		sessionID:    ident.NewSessionID(),
		ad:           ad,
		det:          det,
		secured:      reg.SecureTraces,
		symmetric:    reg.SymmetricChannel,
		state:        message.StateInitializing,
		interest:     make(map[topic.TraceClass]map[ident.EntityID]time.Time),
		keyDelivered: make(map[ident.EntityID]bool),
		done:         make(chan struct{}),
	}
	if tb.sessionKeys() {
		s.sessionKeyRecips = newBounded[ident.EntityID, *sessionKeyRecipient](sessionKeyMaxRecipients)
		s.skReqLast = newBounded[ident.EntityID, time.Time](sessionKeyReqTrack)
	}
	s.entityToBroker = topic.EntityToBrokerSession(s.traceTopic, s.sessionID)
	var terr error
	s.brokerToEntity, terr = topic.BrokerToEntitySession(s.entity, s.traceTopic, s.sessionID)
	if terr != nil {
		respond(message.ErrCodeInternal, terr.Error())
		return
	}

	tb.mu.Lock()
	if tb.closed {
		tb.mu.Unlock()
		return
	}
	// An entity that re-registers replaces its previous session.
	if old, exists := tb.byEntity[s.entity]; exists {
		if oldSess, ok := tb.sessions[old]; ok {
			tb.mu.Unlock()
			oldSess.end("re-registration", false)
			tb.mu.Lock()
		}
	}
	tb.sessions[s.sessionID] = s
	tb.byEntity[s.entity] = s.sessionID
	tb.mu.Unlock()

	if cr, ok := tb.cfg.Guard.resolver.(*CachingResolver); ok {
		cr.Put(ad)
	}

	// The broker subscribes to the entity->broker session topic and to
	// the gauge-interest response topic for this trace topic.
	s.cancelSubs = append(s.cancelSubs,
		tb.cfg.Broker.SubscribeLocal(s.entityToBroker, s.handleEntityMessage),
		tb.cfg.Broker.SubscribeLocal(topic.GaugeInterestResponse(s.traceTopic), s.handleInterestResponse),
	)
	if tb.sessionKeys() {
		// Verifiers that see an unknown session tag ask for the sealed
		// parameters here (§6.3 renegotiation).
		s.cancelSubs = append(s.cancelSubs,
			tb.cfg.Broker.SubscribeLocal(topic.SessionKeyRequests(s.traceTopic), s.handleSessionKeyRequest))
	}

	// Respond with the sealed session identifier and broker credential.
	resp := &message.RegistrationResponse{
		RequestID:  env.RequestID,
		SessionID:  s.sessionID,
		BrokerCert: tb.cfg.Identity.Credential.Cert,
	}
	sealed, err := secure.Seal(entityPub, resp.Marshal())
	if err != nil {
		respond(message.ErrCodeInternal, err.Error())
		return
	}
	wire, err := sealed.Marshal()
	if err != nil {
		respond(message.ErrCodeInternal, err.Error())
		return
	}
	respTopic, err := registrationResponseTopic(reg.Entity, env.RequestID)
	if err != nil {
		return
	}
	out := message.New(message.TypeRegistrationResponse, respTopic, "", wire)
	out.RequestID = env.RequestID
	if err := tb.cfg.Broker.Publish(out); err != nil {
		tb.log.Error("registration response publish failed", "entity", s.entity, "err", err)
	}
	mRegistrations.Inc()
	mSessionsActive.Add(1)
	tb.log.Info("registered", "entity", s.entity, "session", s.sessionID,
		"topic", s.traceTopic, "secured", s.secured, "symmetric", s.symmetric)
}

// removeSession drops bookkeeping for an ended session.
func (tb *TraceBroker) removeSession(s *session) {
	tb.mu.Lock()
	if cur, ok := tb.sessions[s.sessionID]; ok && cur == s {
		delete(tb.sessions, s.sessionID)
		if tb.byEntity[s.entity] == s.sessionID {
			delete(tb.byEntity, s.entity)
		}
		mSessionsActive.Add(-1)
	}
	tb.mu.Unlock()
}

// --- session message handling -------------------------------------------

// openPayload authenticates and (if needed) decrypts an entity message:
// either the envelope is signed with the entity's credential key (§4.2)
// or, under the §6.3 optimization, the payload is authenticated-encrypted
// under the shared channel key.
func (s *session) openPayload(env *message.Envelope) ([]byte, error) {
	if env.Flags&message.FlagEncrypted != 0 {
		s.mu.Lock()
		key := s.chanKey
		s.mu.Unlock()
		if key == nil {
			return nil, errors.New("core: encrypted entity message before channel key delivery")
		}
		return key.DecryptAuthenticated(env.Payload)
	}
	if err := env.VerifySignature(s.entityPub, s.entityHash); err != nil {
		return nil, err
	}
	return env.Payload, nil
}

// handleEntityMessage processes messages the traced entity publishes on
// its session topic.
func (s *session) handleEntityMessage(env *message.Envelope) {
	if env.Source != s.entity {
		return
	}
	payload, err := s.openPayload(env)
	if err != nil {
		s.tb.log.Warn("entity message rejected", "session", s.sessionID, "entity", env.Source, "err", err)
		return
	}
	now := s.tb.clk.Now()
	// The entity's inbound span (its own hop zero plus any relaying
	// brokers) seeds the span of the traces derived from this message, so
	// trackers see one continuous entity→broker(s)→tracker flow under the
	// entity envelope's trace ID.
	origin := env.Span
	switch env.Type {
	case message.TypePingResponse:
		s.onPingResponse(payload, now, origin)
	case message.TypeStateReport:
		s.onStateReport(payload, origin)
	case message.TypeLoadReport:
		s.onLoadReport(payload, origin)
	case message.TypeDelegation:
		s.onDelegation(payload)
	case message.TypeKeyDelivery:
		s.onKeyDelivery(payload)
	case message.TypeSilentMode:
		s.setSilent(true)
	case message.TypeResume:
		s.setSilent(false)
	default:
		s.tb.log.Warn("unexpected entity message type", "session", s.sessionID, "type", env.Type)
	}
}

// onDelegation installs the §4.3 authorization token and delegate key;
// the first delegation activates the session (pings + JOIN trace).
func (s *session) onDelegation(payload []byte) {
	sealed, err := secure.UnmarshalSealedPayload(payload)
	if err != nil {
		s.tb.log.Warn("delegation rejected", "session", s.sessionID, "stage", "unmarshal", "err", err)
		return
	}
	body, err := sealed.Open(s.tb.cfg.Identity.Private)
	if err != nil {
		s.tb.log.Warn("delegation rejected", "session", s.sessionID, "stage", "open", "err", err)
		return
	}
	del, err := message.UnmarshalDelegation(body)
	if err != nil {
		s.tb.log.Warn("delegation rejected", "session", s.sessionID, "stage", "decode", "err", err)
		return
	}
	tok, err := token.Unmarshal(del.TokenBytes)
	if err != nil {
		s.tb.log.Warn("delegation rejected", "session", s.sessionID, "stage", "token", "err", err)
		return
	}
	if tok.TraceTopic != s.traceTopic || tok.Owner != s.entity {
		s.tb.log.Warn("delegation rejected", "session", s.sessionID, "stage", "scope",
			"err", "delegation for wrong topic/owner")
		return
	}
	if _, err := tok.Verify(s.entityPub, s.tb.clk.Now(), token.DefaultClockSkew, token.RightPublish); err != nil {
		s.tb.log.Warn("delegation rejected", "session", s.sessionID, "stage", "verify", "err", err)
		return
	}
	priv, err := secure.ParsePrivateKey(del.DelegatePrivDER)
	if err != nil {
		s.tb.log.Warn("delegation rejected", "session", s.sessionID, "stage", "delegate_key", "err", err)
		return
	}
	delegate, err := secure.NewSigner(priv, traceSigHash)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.tokenBytes = del.TokenBytes
	s.delegate = delegate
	first := !s.active
	s.active = true
	s.mu.Unlock()
	s.installSessionPublisher(del.TokenBytes, delegate)
	if first {
		// "The first time a traced entity registers with a broker, the
		// broker issues a JOIN trace" (§3.3).
		s.publishTrace(nil, message.TraceJoin, topic.ClassChangeNotifications, "entity requested tracing", nil)
		s.tb.wg.Add(1)
		go func() {
			defer s.tb.wg.Done()
			s.pingLoop()
		}()
		s.tb.wg.Add(1)
		go func() {
			defer s.tb.wg.Done()
			s.gaugeLoop()
		}()
	}
}

// onKeyDelivery installs the §6.3 channel key or the §5.1 trace key.
func (s *session) onKeyDelivery(payload []byte) {
	sealed, err := secure.UnmarshalSealedPayload(payload)
	if err != nil {
		return
	}
	body, err := sealed.Open(s.tb.cfg.Identity.Private)
	if err != nil {
		s.tb.log.Warn("key delivery rejected", "session", s.sessionID, "stage", "open", "err", err)
		return
	}
	tk, err := message.UnmarshalTraceKey(body)
	if err != nil {
		s.tb.log.Warn("key delivery rejected", "session", s.sessionID, "stage", "decode", "err", err)
		return
	}
	key, err := secure.SymmetricKeyFromBytes(tk.Key)
	if err != nil {
		s.tb.log.Warn("key delivery rejected", "session", s.sessionID, "stage", "material", "err", err)
		return
	}
	s.mu.Lock()
	switch tk.Purpose {
	case message.PurposeChannel:
		s.chanKey = key
	case message.PurposeTrace:
		s.traceKey = key
	}
	s.mu.Unlock()
}

// onPingResponse feeds the detector and publishes ALLS_WELL (§3.3).
func (s *session) onPingResponse(payload []byte, now time.Time, origin *message.Span) {
	pr, err := message.UnmarshalPingResponse(payload)
	if err != nil {
		return
	}
	rtt, ok := s.det.HandleResponse(pr.Number, now)
	if !ok {
		return
	}
	mPingRTT.ObserveDuration(rtt)
	s.mu.Lock()
	s.state = pr.State
	s.answered++
	// Rough link accounting: a ping/response exchange carries roughly
	// twice the response payload plus envelope framing.
	s.pingBytes = uint64(2*len(payload)) + 256
	pingBytes := s.pingBytes
	publishNet := s.answered%netMetricsEvery == 0
	s.mu.Unlock()
	s.publishTrace(origin, message.TraceAllsWell, topic.ClassAllUpdates,
		fmt.Sprintf("ping %d rtt=%s", pr.Number, rtt), nil)
	if publishNet {
		m := s.det.NetworkMetrics()
		nr := &message.NetworkReport{
			LossRate:       m.LossRate,
			MeanRTTMillis:  float64(m.MeanRTT) / float64(time.Millisecond),
			OutOfOrderRate: m.OutOfOrderRate,
			SampleCount:    uint32(m.Samples),
			At:             now.UnixNano(),
		}
		// Bandwidth estimate (§3.3 lists bandwidth among the network
		// metrics): bytes moved per round trip over the measured RTT.
		// Pings are tiny, so this is a floor, not a throughput claim.
		if m.MeanRTT > 0 {
			nr.BandwidthBps = float64(pingBytes) / m.MeanRTT.Seconds()
		}
		s.publishTrace(origin, message.TraceNetworkMetrics, topic.ClassNetworkMetrics,
			"link metrics from ping history", nr.Marshal())
	}
}

// onStateReport republises entity state transitions (§3.3).
func (s *session) onStateReport(payload []byte, origin *message.Span) {
	sr, err := message.UnmarshalStateReport(payload)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.state = sr.To
	s.mu.Unlock()
	s.publishTrace(origin, sr.To.TraceType(), topic.ClassStateTransitions,
		fmt.Sprintf("state %s -> %s", sr.From, sr.To), sr.Marshal())
	if sr.To == message.StateShutdown {
		s.end("entity shut down", true)
	}
}

// onLoadReport republishes load information (§3.3).
func (s *session) onLoadReport(payload []byte, origin *message.Span) {
	lr, err := message.UnmarshalLoadReport(payload)
	if err != nil {
		return
	}
	s.publishTrace(origin, message.TraceLoadInformation, topic.ClassLoad,
		loadDetail(lr.CPUPercent, lr.Workload), lr.Marshal())
}

// loadDetail is a load trace's detail line, the bytes of
// fmt.Sprintf("cpu=%.1f%% workload=%.2f", cpu, workload) built without
// fmt: every load report passes through here.
func loadDetail(cpu, workload float64) string {
	b := make([]byte, 0, 32)
	b = append(b, "cpu="...)
	b = strconv.AppendFloat(b, cpu, 'f', 1, 64)
	b = append(b, "% workload="...)
	b = strconv.AppendFloat(b, workload, 'f', 2, 64)
	return string(b)
}

// setSilent toggles silent mode (§3.3 REVERTING_TO_SILENT_MODE).
func (s *session) setSilent(silent bool) {
	s.mu.Lock()
	was := s.silent
	s.silent = silent
	s.mu.Unlock()
	if silent && !was {
		s.publishTraceAlways(nil, message.TraceRevertingToSilentMode, topic.ClassChangeNotifications,
			"entity disabled tracing", nil)
	}
	if !silent && was {
		s.publishTrace(nil, message.TraceJoin, topic.ClassChangeNotifications, "entity resumed tracing", nil)
	}
}

// --- ping scheduling ------------------------------------------------------

// pingLoop drives the adaptive ping schedule (§3.3).
func (s *session) pingLoop() {
	clk := s.tb.clk
	for {
		timer := clk.NewTimer(s.det.Interval())
		select {
		case <-timer.C():
		case <-s.done:
			timer.Stop()
			return
		}
		s.mu.Lock()
		silent, ended := s.silent, s.ended
		s.mu.Unlock()
		if ended {
			return
		}
		if silent {
			continue
		}
		now := clk.Now()
		before := s.det.Verdict()
		verdict, _ := s.det.Expire(now)
		if verdict != before {
			switch verdict {
			case failure.Suspected:
				s.publishTrace(nil, message.TraceFailureSuspicion, topic.ClassChangeNotifications,
					fmt.Sprintf("%d consecutive pings unanswered", s.det.ConsecutiveMisses()), nil)
			case failure.Failed:
				s.publishTraceAlways(nil, message.TraceFailed, topic.ClassChangeNotifications,
					"entity deemed failed", nil)
				s.end("failure detected", false)
				return
			}
		}
		num := s.det.NextPingNumber(now)
		ping := &message.Ping{Number: num, BrokerTimestamp: now.UnixNano()}
		env := message.New(message.TypePing, s.brokerToEntity, "", ping.Marshal())
		env.SeqNum = num
		if err := s.tb.cfg.Broker.Publish(env); err != nil {
			s.tb.log.Error("ping publish failed", "session", s.sessionID, "err", err)
		}
	}
}

// --- gauge interest (§3.5) ------------------------------------------------

// gaugeLoop periodically probes for tracker interest and prunes expired
// registrations.
func (s *session) gaugeLoop() {
	clk := s.tb.clk
	s.publishGaugeInterest()
	for {
		timer := clk.NewTimer(s.tb.cfg.GaugeInterval)
		select {
		case <-timer.C():
		case <-s.done:
			timer.Stop()
			return
		}
		s.pruneInterest(clk.Now())
		s.publishGaugeInterest()
	}
}

// publishGaugeInterest issues the GUAGE_INTEREST probe; when traces are
// secured it sets the §5.1 flag so trackers know to request the key.
func (s *session) publishGaugeInterest() {
	probe := &message.GaugeInterestProbe{
		TraceTopic:    s.traceTopic,
		Secured:       s.secured,
		ResponseTopic: topic.GaugeInterestResponse(s.traceTopic).String(),
	}
	env := message.New(message.TraceGaugeInterest, topic.GaugeInterest(s.traceTopic), "", probe.Marshal())
	if s.secured {
		env.Flags |= message.FlagSecured
	}
	mGaugeRounds.Inc()
	s.publishSigned(env, nil, false)
}

// handleInterestResponse records tracker interest and, for secured
// traces, delivers the sealed trace key (§5.1) and, with session keys
// on, the sealed session parameters (§6.3). The keys are published
// before the interest is recorded: every trace the interest unlocks is
// then published after them and cannot overtake them on the route to
// the tracker.
func (s *session) handleInterestResponse(env *message.Envelope) {
	if env.Type != message.TypeInterestResponse {
		return
	}
	ir, err := message.UnmarshalInterestResponse(env.Payload)
	if err != nil {
		return
	}
	if ir.TraceTopic != s.traceTopic || ir.Tracker != env.Source {
		return
	}
	// Trackers must present valid credentials with their interest (§5.1).
	cred := &credential.Credential{Entity: ir.Tracker, Cert: ir.CertDER}
	trackerPub, err := s.tb.cfg.Guard.verifier.Verify(cred)
	if err != nil {
		s.tb.log.Warn("interest rejected", "session", s.sessionID, "tracker", ir.Tracker,
			"reason", "bad_credential", "err", err)
		return
	}
	s.mu.Lock()
	needKey := s.secured && s.traceKey != nil && !s.keyDelivered[ir.Tracker] && ir.KeyDeliveryTopic != ""
	var traceKey *secure.SymmetricKey
	if needKey {
		traceKey = s.traceKey
		s.keyDelivered[ir.Tracker] = true
	}
	sp := s.sp
	var sentID [secure.SessionIDLen]byte
	if sp != nil {
		if rec, ok := s.sessionKeyRecips.get(ir.Tracker); ok {
			sentID = rec.id
		}
	}
	s.mu.Unlock()

	if needKey {
		s.deliverTraceKey(ir, trackerPub, traceKey)
	}
	// Session-key distribution piggybacks on the §5.1 interest exchange:
	// every credentialed interested tracker receives the current sealed
	// session parameters on its key-delivery topic, re-delivered whenever
	// a rekey changed the session ID since the last delivery.
	if sp != nil && ir.KeyDeliveryTopic != "" {
		if k := sp.Key(); k != nil && k.ID() != sentID {
			s.deliverSessionParams(ir.Tracker, ir.KeyDeliveryTopic, trackerPub)
		}
	}
	expiry := s.tb.clk.Now().Add(s.tb.cfg.InterestTTL)
	s.mu.Lock()
	for _, class := range ir.Classes.Classes() {
		m, ok := s.interest[class]
		if !ok {
			m = make(map[ident.EntityID]time.Time)
			s.interest[class] = m
		}
		m[ir.Tracker] = expiry
	}
	s.mu.Unlock()
}

// installSessionPublisher mints (or, on token rotation, re-keys) the
// §6.3 session publisher for this session's delegation. Every rekey
// installs the derived key into the hosting broker's own session store,
// so the guard in front of this broker verifies its own publishers'
// tags without RSA.
func (s *session) installSessionPublisher(tokenBytes []byte, delegate *secure.Signer) {
	if !s.tb.sessionKeys() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sp == nil {
		sp := NewSessionPublisher(s.traceTopic, string(s.entity), tokenBytes, delegate,
			s.tb.clk.Now, DefaultSessionMaxLife)
		sp.OnRekey(func(k *secure.SessionKey) {
			s.tb.cfg.Guard.sessions.Install(s.traceTopic, k)
			// Push the fresh parameters to every verifier that held the
			// previous session (on a fresh goroutine: the hook runs under
			// the publisher's lock, and redelivery seals and publishes).
			// Until a push or interest round lands, Sign stays on the RSA
			// fallback — the rekey never opens an unknown-session gap.
			go s.redeliverSessionParams(k.ID())
		})
		if _, err := sp.Rekey(); err != nil {
			s.tb.log.Warn("session rekey failed", "session", s.sessionID, "err", err)
			return
		}
		s.sp = sp
		return
	}
	if _, err := s.sp.SetToken(tokenBytes, delegate); err != nil {
		s.tb.log.Warn("session rekey failed", "session", s.sessionID, "err", err)
	}
}

// handleSessionKeyRequest answers a verifier's §6.3 renegotiation
// request. Admission runs in cost order: the rate limiter first (a
// request flood must not buy credential-verify + RSA-seal work), then
// the delivery-topic shape check, then credential verification, and
// finally authorization — the session parameters are a shared MAC
// secret, so they are sealed only to requesters with standing for this
// trace topic, mirroring the §5.1 trace-key gate: a tracker currently
// registered through the interest exchange (delivered only to its own
// key-delivery topic), or a credential carrying the broker role
// (credential.BrokerOU), which relaying brokers present. Any merely
// CA-credentialed entity is refused — holding the key would let it
// forge steady-state traces every session-holding verifier accepts.
// Bad requests are ignored beyond a counter and a log line — the
// requester simply stays on (or falls back to) the RSA path.
func (s *session) handleSessionKeyRequest(env *message.Envelope) {
	if env.Type != message.TypeSessionKeyRequest {
		return
	}
	sr, err := message.UnmarshalSessionKeyRequest(env.Payload)
	if err != nil || sr.TraceTopic != s.traceTopic || sr.DeliveryTopic == "" || sr.Requester == "" {
		return
	}
	now := s.tb.clk.Now()
	if !s.admitSessionKeyRequest(sr.Requester, now) {
		mSessKeyRejRate.Inc()
		return
	}
	tp, err := topic.Parse(sr.DeliveryTopic)
	if err != nil {
		mSessKeyRejTopic.Inc()
		s.tb.log.Warn("session key request rejected", "session", s.sessionID,
			"requester", sr.Requester, "reason", "bad_delivery_topic", "err", err)
		return
	}
	cred := &credential.Credential{Entity: sr.Requester, Cert: sr.CertDER}
	pub, err := s.tb.cfg.Guard.verifier.Verify(cred)
	if err != nil {
		mSessKeyRejCred.Inc()
		s.tb.log.Warn("session key request rejected", "session", s.sessionID,
			"requester", sr.Requester, "reason", "bad_credential", "err", err)
		return
	}
	switch {
	case s.interestedTracker(sr.Requester, now):
		// A registered tracker's response goes only to its own
		// key-delivery topic — never a requester-chosen constrained topic
		// whose guard would score the response against this broker.
		want, werr := keyDeliveryTopic(sr.Requester, s.traceTopic)
		if werr != nil || !tp.Equal(want) {
			mSessKeyRejTopic.Inc()
			s.tb.log.Warn("session key request rejected", "session", s.sessionID,
				"requester", sr.Requester, "reason", "bad_delivery_topic", "topic", sr.DeliveryTopic)
			return
		}
	case cred.IsBroker():
		if !topic.IsSessionKeyDelivery(tp) {
			mSessKeyRejTopic.Inc()
			s.tb.log.Warn("session key request rejected", "session", s.sessionID,
				"requester", sr.Requester, "reason", "bad_delivery_topic", "topic", sr.DeliveryTopic)
			return
		}
	default:
		mSessKeyRejUnauth.Inc()
		s.tb.log.Warn("session key request rejected", "session", s.sessionID,
			"requester", sr.Requester, "reason", "unauthorized")
		return
	}
	s.deliverSessionParams(sr.Requester, sr.DeliveryTopic, pub)
}

// admitSessionKeyRequest applies the responder-side rate limits: one
// request per requester and sessionKeyRespBurst total per
// sessionRequestMinInterval window. It is the cheapest check in the
// request pipeline and therefore runs first.
func (s *session) admitSessionKeyRequest(requester ident.EntityID, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.skReqLast == nil {
		return false // session keys off
	}
	if now.Sub(s.skWindowStart) >= sessionRequestMinInterval {
		s.skWindowStart = now
		s.skWindowCount = 0
	}
	if s.skWindowCount >= sessionKeyRespBurst {
		return false
	}
	if last, ok := s.skReqLast.get(requester); ok && now.Sub(last) < sessionRequestMinInterval {
		return false
	}
	s.skReqLast.put(requester, now)
	s.skWindowCount++
	return true
}

// interestedTracker reports whether the entity holds an unexpired §5.1
// interest registration for any trace class of this session.
func (s *session) interestedTracker(e ident.EntityID, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.interest {
		if expiry, ok := m[e]; ok && now.Before(expiry) {
			return true
		}
	}
	return false
}

// deliverSessionParams seals the current §6.3 session parameters to a
// verifier's credential key and publishes the SESSION_KEY_RESPONSE on
// its delivery topic. The response envelope itself carries the token
// and the RSA delegate signature — it is the one full §4.3 verification
// the session path amortizes. A published response marks the sealed
// session distributed (unblocking session-tag signing) and remembers
// the recipient for proactive rekey pushes. It reports whether a
// response was published.
func (s *session) deliverSessionParams(recipient ident.EntityID, deliveryTopic string, pub *rsa.PublicKey) bool {
	s.mu.Lock()
	sp := s.sp
	s.mu.Unlock()
	if sp == nil {
		return false
	}
	sealed, id, err := sp.SealedParamsFor(pub)
	if err != nil {
		s.tb.log.Warn("session params seal failed", "session", s.sessionID,
			"recipient", recipient, "err", err)
		return false
	}
	tp, err := topic.Parse(deliveryTopic)
	if err != nil {
		return false
	}
	resp := &message.SessionKeyResponse{TraceTopic: s.traceTopic, Recipient: recipient, Sealed: sealed}
	env := message.New(message.TypeSessionKeyResponse, tp, "", resp.Marshal())
	s.publishSigned(env, nil, false)
	s.rememberRecipient(recipient, id, deliveryTopic, pub)
	sp.MarkDistributed(id)
	mSessionKeyDeliveries.Inc()
	s.tb.log.Info("session key delivered", "session", s.sessionID, "recipient", recipient)
	return true
}

// rememberRecipient records (or refreshes) a verifier holding this
// session's sealed parameters. A full table evicts the longest-idle
// recipient — a refresh makes its recipient the newest — so a churn of
// new verifiers cannot lock every later arrival out of proactive rekey
// pushes.
func (s *session) rememberRecipient(recipient ident.EntityID, id [secure.SessionIDLen]byte, deliveryTopic string, pub *rsa.PublicKey) {
	s.mu.Lock()
	evicted := s.sessionKeyRecips.put(recipient, &sessionKeyRecipient{id: id, deliveryTopic: deliveryTopic, pub: pub})
	s.mu.Unlock()
	if evicted {
		mSessionKeyRecipsEvicted.Inc()
	}
}

// redeliverSessionParams pushes the session parameters with the given
// ID to every remembered recipient that does not hold them yet — the
// proactive half of rekey distribution, invoked from the publisher's
// OnRekey hook.
func (s *session) redeliverSessionParams(id [secure.SessionIDLen]byte) {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	type target struct {
		entity ident.EntityID
		topic  string
		pub    *rsa.PublicKey
	}
	targets := make([]target, 0, s.sessionKeyRecips.len())
	s.sessionKeyRecips.each(func(e ident.EntityID, rec *sessionKeyRecipient) {
		if rec.id != id {
			targets = append(targets, target{entity: e, topic: rec.deliveryTopic, pub: rec.pub})
		}
	})
	s.mu.Unlock()
	for _, t := range targets {
		s.deliverSessionParams(t.entity, t.topic, t.pub)
	}
}

// deliverTraceKey seals the secret trace key to a tracker (§5.1): the
// payload is secured with a combination of the tracker's credential and
// a randomly generated secret key; only the holder of the credential's
// private key can recover it.
func (s *session) deliverTraceKey(ir *message.InterestResponse, trackerPub *rsa.PublicKey, key *secure.SymmetricKey) {
	tk := &message.TraceKey{
		Purpose:   message.PurposeTrace,
		Key:       key.Bytes(),
		Algorithm: TraceKeyAlgorithm,
		Padding:   TraceKeyPadding,
	}
	sealed, err := secure.Seal(trackerPub, tk.Marshal())
	if err != nil {
		return
	}
	wire, err := sealed.Marshal()
	if err != nil {
		return
	}
	tp, err := topic.Parse(ir.KeyDeliveryTopic)
	if err != nil {
		return
	}
	env := message.New(message.TypeKeyDelivery, tp, "", wire)
	s.publishSigned(env, nil, false)
	mKeyDeliveries.Inc()
	s.tb.log.Info("trace key delivered", "session", s.sessionID, "tracker", ir.Tracker)
}

// pruneInterest expires stale tracker registrations.
func (s *session) pruneInterest(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for class, m := range s.interest {
		for tracker, expiry := range m {
			if now.After(expiry) {
				delete(m, tracker)
			}
		}
		if len(m) == 0 {
			delete(s.interest, class)
		}
	}
}

// hasInterest reports whether any tracker currently wants the class.
func (s *session) hasInterest(class topic.TraceClass) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.interest[class]) > 0
}

// --- trace publication -----------------------------------------------------

// publishTrace publishes a trace if the class has interested trackers;
// change notifications are always published (JOIN precedes any gauged
// interest; failure notices are the scheme's raison d'être). origin,
// when non-nil, is the span of the entity message the trace derives
// from, threaded through so end-to-end assembly sees one flow from the
// entity's hop zero through every broker to the tracker.
func (s *session) publishTrace(origin *message.Span, tt message.Type, class topic.TraceClass, detail string, body []byte) {
	s.mu.Lock()
	silent := s.silent
	s.mu.Unlock()
	if silent {
		return
	}
	if class != topic.ClassChangeNotifications && !s.hasInterest(class) {
		// Interest suppression hides the trace from the network, not from
		// the broker's own availability ledger.
		s.observeAvail(tt)
		mTracesSuppressed.Inc()
		return
	}
	s.publishTraceAlways(origin, tt, class, detail, body)
}

// observeAvail feeds a trace the broker originates about this session
// into its availability ledger. Failure traces carry the detector's
// last-contact time as the event stamp, so the ledger's time-to-detect
// measures how stale the broker's knowledge was when the verdict fell.
func (s *session) observeAvail(tt message.Type) {
	l := s.tb.avail
	if l == nil {
		return
	}
	kind, ok := avail.KindForType(tt)
	if !ok {
		return
	}
	ob := avail.Observation{
		Entity: string(s.entity),
		Kind:   kind,
		SeenAt: s.tb.clk.Now(),
	}
	if kind != avail.KindUp {
		if last := s.det.LastPingAt(); !last.IsZero() {
			ob.At = last
		}
	}
	l.Observe(ob)
}

// publishTraceAlways publishes regardless of interest and silence (used
// for the silent-mode notice itself and terminal FAILED traces).
func (s *session) publishTraceAlways(origin *message.Span, tt message.Type, class topic.TraceClass, detail string, body []byte) {
	s.observeAvail(tt)
	te := &message.TraceEvent{
		Entity:     s.entity,
		TraceTopic: s.traceTopic,
		Detail:     detail,
		Body:       body,
	}
	payload := te.Marshal()
	s.mu.Lock()
	traceKey := s.traceKey
	secured := s.secured
	s.mu.Unlock()
	encrypted := false
	if secured && traceKey != nil {
		ct, err := traceKey.Encrypt(payload)
		if err != nil {
			return
		}
		payload = ct
		encrypted = true
	}
	env := message.New(tt, topic.ForClass(s.traceTopic, class), "", payload)
	if encrypted {
		env.Flags |= message.FlagEncrypted
	}
	mTracesPublished.Inc()
	// High-rate steady-state classes ride the §6.3 session path; one-shot
	// change notifications and state transitions keep the RSA signature so
	// they verify everywhere immediately, even at verifiers that have not
	// negotiated the session yet.
	s.publishSigned(env, origin, sessionTagged(class))
}

// sessionTagged reports whether traces of class ride the §6.3 session
// path: the high-rate steady-state classes.
func sessionTagged(class topic.TraceClass) bool {
	return class == topic.ClassAllUpdates || class == topic.ClassLoad || class == topic.ClassNetworkMetrics
}

// publishSigned authenticates and publishes one broker-originated
// envelope. allowSession selects the §6.3 session tag when a live
// session key exists; the publisher transparently falls back to the
// token + RSA delegate signature when the session window has closed
// (rekeying for the next message) or session keys are off. origin, when
// non-nil, is the span of the entity message this envelope derives
// from: its trace ID and hops carry over, so the derived trace
// continues the entity's flow instead of starting a fresh one.
func (s *session) publishSigned(env *message.Envelope, origin *message.Span, allowSession bool) {
	s.mu.Lock()
	tokenBytes := s.tokenBytes
	delegate := s.delegate
	sp := s.sp
	s.mu.Unlock()
	if delegate == nil {
		return
	}
	if allowSession && sp != nil {
		if _, err := sp.Sign(env); err != nil {
			return
		}
	} else {
		env.Token = tokenBytes
		if err := env.Sign(delegate); err != nil {
			return
		}
	}
	// Originate the per-hop span AFTER signing: the annotation sits
	// outside the signed byte range and starts with this broker's stamp
	// (preceded by the entity-side hops when the trace derives from an
	// entity message).
	if origin != nil && len(origin.Hops) > 0 {
		env.Span = origin.Clone()
	}
	env.StartSpan()
	env.AddHop(s.tb.cfg.Broker.Name(), s.tb.clk.Now())
	if err := s.tb.cfg.Broker.Publish(env); err != nil {
		s.tb.log.Error("publish failed", "session", s.sessionID, "type", env.Type, "err", err)
	}
}

// --- session-key renegotiation (§6.3), broker as verifier ----------------

// requestSessionKey is the guard's unknown-session hook: it publishes
// a rate-limited SESSION_KEY_REQUEST naming this broker's delivery
// topic, so the hosting broker of the unknown session's publisher
// re-seals the current parameters to this broker's credential. The
// publish happens on a fresh goroutine — the guard runs on the routing
// path and must not publish re-entrantly.
func (tb *TraceBroker) requestSessionKey(tt ident.UUID, sid [secure.SessionIDLen]byte) {
	if !requestDue(tb, tb.sessReqLast, sid) {
		return
	}
	mSessionKeyRequests.Inc()
	go tb.publishSessionKeyRequest(tt, sid)
}

// requestDue reports whether a session-key request keyed k may go out
// now — none went out under k within sessionRequestMinInterval — and if
// so records it in last.
func requestDue[K comparable](tb *TraceBroker, last *bounded[K, time.Time], k K) bool {
	now := tb.clk.Now()
	tb.sessReqMu.Lock()
	defer tb.sessReqMu.Unlock()
	if t, ok := last.get(k); ok && now.Sub(t) < sessionRequestMinInterval {
		return false
	}
	last.put(k, now)
	return true
}

// prefetchSessionKey is the broker's subscription hook: the first time
// a client or a linked broker subscribes here to a session-tagged class
// of trace topic tt, this broker asks tt's hosting broker for the sealed
// session parameters, so the key is installed before the first tagged
// trace this broker relays arrives instead of after it has been dropped
// as unknown-session. A broker that holds a key of tt asks nothing — a
// hosting broker holds its own sessions' keys — and the request is
// rate-limited per trace topic. The responder records this broker as a
// recipient, so rekeys reach it too. The request is published on the
// subscribing peer's goroutine, before the subscription is acknowledged
// or the peer's next frame is read, so on each link it travels ahead of
// the tracker's interest response that turns the publisher to tags.
func (tb *TraceBroker) prefetchSessionKey(tp topic.Topic) {
	tt, class, ok := topic.DerivativeClass(tp)
	if !ok || !sessionTagged(class) || tb.cfg.Guard.sessions.HasTopic(tt) {
		return
	}
	if !requestDue(tb, tb.sessReqTopicLast, tt) {
		return
	}
	mSessionKeyRequests.Inc()
	tb.publishSessionKeyRequest(tt, [secure.SessionIDLen]byte{})
}

// publishSessionKeyRequest asks the hosting broker of tt's publisher
// for the sealed session parameters, naming this broker's credential
// and delivery topic (a zero sid asks for the current session).
func (tb *TraceBroker) publishSessionKeyRequest(tt ident.UUID, sid [secure.SessionIDLen]byte) {
	req := &message.SessionKeyRequest{
		TraceTopic: tt,
		SessionID:  sid,
		// The requester identifies by its credential entity (the name the
		// CA signed), not the broker's wire name — the responder verifies
		// the cert against exactly this identity.
		Requester:     tb.cfg.Identity.Credential.Entity,
		CertDER:       tb.cfg.Identity.Credential.Cert,
		DeliveryTopic: topic.SessionKeyDelivery(tb.cfg.Broker.Name()).String(),
	}
	env := message.New(message.TypeSessionKeyRequest, topic.SessionKeyRequests(tt), "", req.Marshal())
	if err := tb.cfg.Broker.Publish(env); err != nil {
		tb.log.Warn("session key request publish failed", "topic", tt, "err", err)
	}
}

// handleSessionKeyResponse installs a sealed session key negotiated for
// this broker: the response envelope is fully verified on the RSA path
// first (the single §4.3 check the session path amortizes), opened with
// the broker's credential key, bound against the verified token, and
// the derived key installed into the guard's store.
func (tb *TraceBroker) handleSessionKeyResponse(env *message.Envelope) {
	if env.Type != message.TypeSessionKeyResponse {
		return
	}
	sr, err := message.UnmarshalSessionKeyResponse(env.Payload)
	if err != nil || sr.Recipient != tb.cfg.Identity.Credential.Entity {
		return
	}
	key, err := tb.cfg.Guard.OpenSessionKeyResponse(env, sr, tb.cfg.Identity.Private, tb.clk.Now())
	if err != nil {
		tb.log.Warn("session key response rejected", "topic", sr.TraceTopic, "err", err)
		return
	}
	tb.cfg.Guard.sessions.Install(sr.TraceTopic, key)
	tb.log.Info("session key installed", "topic", sr.TraceTopic)
}

// end terminates a session, optionally publishing a DISCONNECT trace.
func (s *session) end(reason string, graceful bool) {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	active := s.active
	s.mu.Unlock()
	if active && !graceful && reason != "" && reason != "failure detected" {
		s.publishTraceAlways(nil, message.TraceDisconnect, topic.ClassChangeNotifications, reason, nil)
	}
	close(s.done)
	for _, cancel := range s.cancelSubs {
		cancel()
	}
	s.tb.removeSession(s)
	s.tb.log.Info("session ended", "session", s.sessionID, "entity", s.entity, "reason", reason)
}
