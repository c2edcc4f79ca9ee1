package core

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"sync"
	"time"

	"entitytrace/internal/backoff"
	"entitytrace/internal/broker"
	"entitytrace/internal/clock"
	"entitytrace/internal/credential"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/secure"
	"entitytrace/internal/sysinfo"
	"entitytrace/internal/tdn"
	"entitytrace/internal/token"
	"entitytrace/internal/topic"
)

// TopicRegistry creates trace topics; both *tdn.Client and *tdn.Node
// satisfy it.
type TopicRegistry interface {
	CreateTopic(req *tdn.CreateRequest) (*tdn.Advertisement, error)
}

// EntityConfig configures a traced entity.
type EntityConfig struct {
	// Identity is the entity's credential with private key.
	Identity *credential.Identity
	// Verifier validates the broker credential in the registration
	// response.
	Verifier *credential.Verifier
	// Registry creates the trace topic (§3.1).
	Registry TopicRegistry
	// Client is the entity's connection to its broker (§3.2). The entity
	// takes ownership and closes it on Stop.
	Client *broker.Client
	// Clock drives token renewal and timestamps.
	Clock clock.Clock
	// SecureTraces requests §5.1 confidentiality.
	SecureTraces bool
	// SymmetricChannel enables the §6.3 signing-cost optimization.
	SymmetricChannel bool
	// AllowAnyTracker opens discovery to all credentialed entities;
	// otherwise AllowedTrackers lists who may discover the trace topic.
	AllowAnyTracker bool
	AllowedTrackers []string
	// TopicLifetime bounds the trace topic (§3.1); zero selects the TDN
	// default.
	TopicLifetime time.Duration
	// TokenValidity bounds each authorization token (§4.3: "typically
	// short enough to correspond to its expected presence within the
	// system"). Zero selects 10 minutes.
	TokenValidity time.Duration
	// LoadProvider, when set with a positive LoadInterval, reports load
	// periodically (§3.3).
	LoadProvider sysinfo.Provider
	LoadInterval time.Duration
	// RegisterTimeout bounds the registration round trip.
	RegisterTimeout time.Duration
	// Redial, when set, enables automatic reconnect: when the broker
	// connection drops, the entity dials a replacement client via Redial
	// (paced by ReconnectBackoff), re-registers its existing trace-topic
	// advertisement and re-runs the key/delegation handshake — resuming
	// the session, including its authorization state, without operator
	// involvement.
	Redial func() (*broker.Client, error)
	// ReconnectBackoff paces Redial attempts; the zero value selects
	// the backoff package defaults.
	ReconnectBackoff backoff.Config
}

// TracedEntity is a live tracing session from the entity's side: it
// owns the trace topic, answers pings, reports state transitions and
// load, renews its authorization tokens, and can rotate to a fresh
// trace topic if the current one is compromised (§5.2).
type TracedEntity struct {
	cfg    EntityConfig
	signer *secure.Signer

	// rotateMu serializes registration/rotation sequences.
	rotateMu sync.Mutex

	mu         sync.Mutex
	cl         *broker.Client // current broker connection (swapped on reconnect)
	ad         *tdn.Advertisement
	session    ident.SessionID
	brokerCert *credential.Credential
	brokerPub  *rsa.PublicKey
	sessionOut topic.Topic // entity -> broker
	sessionIn  topic.Topic // broker -> entity
	chanKey    *secure.SymmetricKey
	traceKey   *secure.SymmetricKey
	state      message.EntityState
	seq        uint64
	stopped    bool

	done chan struct{}
	wg   sync.WaitGroup
}

// StartTracing runs the full §3.1-§3.2 bring-up: create the trace topic
// at a TDN, register with the broker, establish the session, delegate
// publication authority (§4.3), and exchange the optional symmetric and
// trace keys (§6.3, §5.1).
func StartTracing(cfg EntityConfig) (*TracedEntity, error) {
	if cfg.Identity == nil || cfg.Identity.Private == nil {
		return nil, errors.New("core: entity needs an identity with a private key")
	}
	if cfg.Registry == nil || cfg.Client == nil || cfg.Verifier == nil {
		return nil, errors.New("core: entity needs Registry, Client and Verifier")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.TokenValidity <= 0 {
		cfg.TokenValidity = 10 * time.Minute
	}
	if cfg.RegisterTimeout <= 0 {
		cfg.RegisterTimeout = 15 * time.Second
	}
	signer, err := secure.NewSigner(cfg.Identity.Private, secure.SHA1)
	if err != nil {
		return nil, err
	}
	te := &TracedEntity{
		cfg:    cfg,
		cl:     cfg.Client,
		signer: signer,
		state:  message.StateInitializing,
		done:   make(chan struct{}),
	}
	ad, err := te.createTopic()
	if err != nil {
		return nil, err
	}
	if err := te.establishSession(ad, false); err != nil {
		return nil, err
	}
	te.startLoops()
	return te, nil
}

func (te *TracedEntity) entity() ident.EntityID { return te.cfg.Identity.Credential.Entity }

// client returns the current broker connection; reconnect swaps it.
func (te *TracedEntity) client() *broker.Client {
	te.mu.Lock()
	defer te.mu.Unlock()
	return te.cl
}

// Entity returns the entity's identifier.
func (te *TracedEntity) Entity() ident.EntityID { return te.entity() }

// TraceTopic returns the current UUID trace topic.
func (te *TracedEntity) TraceTopic() ident.UUID {
	te.mu.Lock()
	defer te.mu.Unlock()
	return te.ad.TopicID
}

// Advertisement returns the current signed topic advertisement.
func (te *TracedEntity) Advertisement() *tdn.Advertisement {
	te.mu.Lock()
	defer te.mu.Unlock()
	return te.ad
}

// SessionID returns the broker-assigned session identifier.
func (te *TracedEntity) SessionID() ident.SessionID {
	te.mu.Lock()
	defer te.mu.Unlock()
	return te.session
}

// State returns the entity's current lifecycle state.
func (te *TracedEntity) State() message.EntityState {
	te.mu.Lock()
	defer te.mu.Unlock()
	return te.state
}

// TraceKey returns the §5.1 secret trace key (nil when traces are not
// secured); examples use it to demonstrate out-of-band decryption.
func (te *TracedEntity) TraceKey() *secure.SymmetricKey {
	te.mu.Lock()
	defer te.mu.Unlock()
	return te.traceKey
}

// createTopic performs §3.1: a signed topic creation request carrying
// credentials, descriptor, discovery restrictions and lifetime.
func (te *TracedEntity) createTopic() (*tdn.Advertisement, error) {
	req := &tdn.CreateRequest{
		Owner:      te.entity(),
		OwnerCert:  te.cfg.Identity.Credential.Cert,
		Descriptor: string(topic.AvailabilityDescriptor(te.entity())),
		AllowAny:   te.cfg.AllowAnyTracker,
		Allowed:    te.cfg.AllowedTrackers,
		Lifetime:   te.cfg.TopicLifetime,
		RequestID:  ident.NewRequestID(),
	}
	if err := req.Sign(te.signer); err != nil {
		return nil, err
	}
	ad, err := te.cfg.Registry.CreateTopic(req)
	if err != nil {
		return nil, fmt.Errorf("core: creating trace topic: %w", err)
	}
	if _, err := ad.Verify(te.cfg.Verifier, te.cfg.Clock.Now()); err != nil {
		return nil, fmt.Errorf("core: TDN returned invalid advertisement: %w", err)
	}
	return ad, nil
}

// register performs §3.2: subscribe to the response topic, publish the
// signed registration, await and open the sealed response.
func (te *TracedEntity) register(ad *tdn.Advertisement) (ident.SessionID, *credential.Credential, *rsa.PublicKey, error) {
	reqID := ident.NewRequestID()
	respTopic, err := registrationResponseTopic(te.entity(), reqID)
	if err != nil {
		return ident.Nil, nil, nil, err
	}
	cl := te.client()
	respCh := make(chan *message.Envelope, 1)
	if err := cl.Subscribe(respTopic, func(env *message.Envelope) {
		select {
		case respCh <- env:
		default:
		}
	}); err != nil {
		return ident.Nil, nil, nil, fmt.Errorf("core: subscribing to registration response: %w", err)
	}
	defer cl.Unsubscribe(respTopic)

	reg := &message.Registration{
		Entity:           te.entity(),
		CertDER:          te.cfg.Identity.Credential.Cert,
		Advertisement:    ad.Marshal(),
		SecureTraces:     te.cfg.SecureTraces,
		SymmetricChannel: te.cfg.SymmetricChannel,
	}
	env := message.New(message.TypeRegistration, topic.Registration(), te.entity(), reg.Marshal())
	env.RequestID = reqID
	if err := env.Sign(te.signer); err != nil {
		return ident.Nil, nil, nil, err
	}
	if err := cl.Publish(env); err != nil {
		return ident.Nil, nil, nil, fmt.Errorf("core: publishing registration: %w", err)
	}

	var resp *message.Envelope
	select {
	case resp = <-respCh:
	case <-te.cfg.Clock.After(te.cfg.RegisterTimeout):
		return ident.Nil, nil, nil, errors.New("core: registration timed out")
	case <-cl.Done():
		return ident.Nil, nil, nil, errors.New("core: broker connection lost during registration")
	}
	if resp.Type == message.TypeError {
		if er, err := message.UnmarshalErrorReport(resp.Payload); err == nil {
			return ident.Nil, nil, nil, fmt.Errorf("core: registration rejected (code %d): %s", er.Code, er.Detail)
		}
		return ident.Nil, nil, nil, errors.New("core: registration rejected")
	}
	sealed, err := secure.UnmarshalSealedPayload(resp.Payload)
	if err != nil {
		return ident.Nil, nil, nil, fmt.Errorf("core: registration response: %w", err)
	}
	body, err := sealed.Open(te.cfg.Identity.Private)
	if err != nil {
		return ident.Nil, nil, nil, fmt.Errorf("core: opening registration response: %w", err)
	}
	rr, err := message.UnmarshalRegistrationResponse(body)
	if err != nil {
		return ident.Nil, nil, nil, err
	}
	if rr.RequestID != reqID {
		return ident.Nil, nil, nil, errors.New("core: registration response correlates to a different request")
	}
	// Verify the broker credential before sealing keys to it.
	brokerCred := &credential.Credential{Cert: rr.BrokerCert}
	cert, err := brokerCred.Certificate()
	if err != nil {
		return ident.Nil, nil, nil, fmt.Errorf("core: broker certificate: %w", err)
	}
	brokerCred.Entity = ident.EntityID(cert.Subject.CommonName)
	pub, err := te.cfg.Verifier.Verify(brokerCred)
	if err != nil {
		return ident.Nil, nil, nil, fmt.Errorf("core: broker credential: %w", err)
	}
	return rr.SessionID, brokerCred, pub, nil
}

// establishSession registers ad with the broker, subscribes to the new
// session topic, installs the session coordinates and runs the key/
// delegation handshake. When rotating, the previous session topic is
// unsubscribed afterwards.
func (te *TracedEntity) establishSession(ad *tdn.Advertisement, rotating bool) error {
	cl := te.client()
	session, brokerCred, brokerPub, err := te.register(ad)
	if err != nil {
		return err
	}
	out := topic.EntityToBrokerSession(ad.TopicID, session)
	in, err := topic.BrokerToEntitySession(te.entity(), ad.TopicID, session)
	if err != nil {
		return err
	}
	if err := cl.Subscribe(in, te.handleBrokerMessage); err != nil {
		return fmt.Errorf("core: subscribing to session topic: %w", err)
	}

	te.mu.Lock()
	oldIn := te.sessionIn
	te.ad = ad
	te.session = session
	te.brokerCert = brokerCred
	te.brokerPub = brokerPub
	te.sessionOut = out
	te.sessionIn = in
	// Fresh session, fresh keys: the broker discards old-session keys.
	te.chanKey = nil
	te.traceKey = nil
	te.mu.Unlock()

	if err := te.handshake(); err != nil {
		return err
	}
	if rotating && !oldIn.IsZero() {
		_ = cl.Unsubscribe(oldIn)
	}
	return nil
}

// handshake ships the optional symmetric and trace keys and the
// delegation for the current session (§6.3, §5.1, §4.3).
func (te *TracedEntity) handshake() error {
	// §6.3: symmetric channel key first, so subsequent messages can use
	// it (the key-delivery message itself is signed).
	if te.cfg.SymmetricChannel {
		key, err := secure.NewSymmetricKey(secure.PaperAESKeyBytes)
		if err != nil {
			return err
		}
		if err := te.sendKey(message.PurposeChannel, key); err != nil {
			return err
		}
		te.mu.Lock()
		te.chanKey = key
		te.mu.Unlock()
	}
	// §5.1: secret trace key.
	if te.cfg.SecureTraces {
		key, err := secure.NewSymmetricKey(secure.PaperAESKeyBytes)
		if err != nil {
			return err
		}
		if err := te.sendKey(message.PurposeTrace, key); err != nil {
			return err
		}
		te.mu.Lock()
		te.traceKey = key
		te.mu.Unlock()
	}
	// §4.3: delegate publication authority.
	return te.sendDelegation()
}

// startLoops runs token renewal and optional load reporting.
func (te *TracedEntity) startLoops() {
	te.wg.Add(1)
	go func() {
		defer te.wg.Done()
		te.renewLoop()
	}()
	if te.cfg.LoadProvider != nil && te.cfg.LoadInterval > 0 {
		te.wg.Add(1)
		go func() {
			defer te.wg.Done()
			te.loadLoop()
		}()
	}
	if te.cfg.Redial != nil {
		te.wg.Add(1)
		go func() {
			defer te.wg.Done()
			te.reconnectLoop()
		}()
	}
}

// RotateTopic abandons the current trace topic and establishes a fresh
// one (§5.2: "In the unlikely event that this trace topic was
// compromised, a trace entity can register another trace topic").
// Trackers must re-discover the entity to continue tracing; the old
// topic's session ends at the broker via re-registration. It returns
// the new trace topic.
func (te *TracedEntity) RotateTopic() (ident.UUID, error) {
	te.rotateMu.Lock()
	defer te.rotateMu.Unlock()
	te.mu.Lock()
	stopped := te.stopped
	te.mu.Unlock()
	if stopped {
		return ident.Nil, errors.New("core: traced entity stopped")
	}
	ad, err := te.createTopic()
	if err != nil {
		return ident.Nil, err
	}
	if err := te.establishSession(ad, true); err != nil {
		return ident.Nil, err
	}
	return ad.TopicID, nil
}

// sendKey seals a symmetric key to the broker (§5.1/§6.3).
func (te *TracedEntity) sendKey(purpose uint8, key *secure.SymmetricKey) error {
	te.mu.Lock()
	brokerPub := te.brokerPub
	te.mu.Unlock()
	tk := &message.TraceKey{
		Purpose:   purpose,
		Key:       key.Bytes(),
		Algorithm: TraceKeyAlgorithm,
		Padding:   TraceKeyPadding,
	}
	sealed, err := secure.Seal(brokerPub, tk.Marshal())
	if err != nil {
		return err
	}
	wire, err := sealed.Marshal()
	if err != nil {
		return err
	}
	return te.sendSigned(message.TypeKeyDelivery, wire)
}

// sendDelegation grants and ships a fresh authorization token (§4.3):
// trace-topic information, the randomly generated key pair, publish
// rights, a bounded validity, all signed by the entity.
func (te *TracedEntity) sendDelegation() error {
	te.mu.Lock()
	topicID := te.ad.TopicID
	brokerPub := te.brokerPub
	te.mu.Unlock()
	del, err := token.Grant(te.entity(), topicID, token.RightPublish,
		te.cfg.TokenValidity, te.cfg.Clock.Now(), te.signer, secure.PaperRSABits)
	if err != nil {
		return err
	}
	privDER, err := secure.MarshalPrivateKey(del.PrivateKey)
	if err != nil {
		return err
	}
	d := &message.Delegation{TokenBytes: del.Token.Marshal(), DelegatePrivDER: privDER}
	sealed, err := secure.Seal(brokerPub, d.Marshal())
	if err != nil {
		return err
	}
	wire, err := sealed.Marshal()
	if err != nil {
		return err
	}
	return te.sendSigned(message.TypeDelegation, wire)
}

// sendSigned always signs (used for key material even in symmetric
// mode).
func (te *TracedEntity) sendSigned(t message.Type, payload []byte) error {
	te.mu.Lock()
	out := te.sessionOut
	te.seq++
	seq := te.seq
	te.mu.Unlock()
	env := message.New(t, out, te.entity(), payload)
	env.SeqNum = seq
	if err := env.Sign(te.signer); err != nil {
		return err
	}
	te.originateSpan(env)
	return te.client().Publish(env)
}

// originateSpan opts the envelope into per-hop tracing, stamped with the
// entity as hop zero. Called after signing: the annotation is outside
// the signed byte range.
func (te *TracedEntity) originateSpan(env *message.Envelope) {
	env.StartSpan()
	env.AddHop(string(te.entity()), te.cfg.Clock.Now())
}

// send transmits a session message, using the §6.3 symmetric channel
// when established and signatures otherwise (§4.2: every trace message
// initiated at a traced entity demonstrates possession of credentials).
func (te *TracedEntity) send(t message.Type, payload []byte) error {
	te.mu.Lock()
	key := te.chanKey
	out := te.sessionOut
	te.seq++
	seq := te.seq
	stopped := te.stopped
	te.mu.Unlock()
	if stopped {
		return errors.New("core: traced entity stopped")
	}
	env := message.New(t, out, te.entity(), payload)
	env.SeqNum = seq
	if key != nil {
		ct, err := key.EncryptAuthenticated(payload)
		if err != nil {
			return err
		}
		env.Payload = ct
		env.Flags |= message.FlagEncrypted
		te.originateSpan(env)
		return te.client().Publish(env)
	}
	if err := env.Sign(te.signer); err != nil {
		return err
	}
	te.originateSpan(env)
	return te.client().Publish(env)
}

// handleBrokerMessage answers pings and other broker->entity traffic.
func (te *TracedEntity) handleBrokerMessage(env *message.Envelope) {
	switch env.Type {
	case message.TypePing:
		ping, err := message.UnmarshalPing(env.Payload)
		if err != nil {
			return
		}
		te.mu.Lock()
		state := te.state
		te.mu.Unlock()
		pr := &message.PingResponse{
			Number:          ping.Number,
			BrokerTimestamp: ping.BrokerTimestamp,
			EntityTimestamp: te.cfg.Clock.Now().UnixNano(),
			State:           state,
		}
		_ = te.send(message.TypePingResponse, pr.Marshal())
	default:
	}
}

// SetState reports a lifecycle transition (§3.3); the broker republishes
// it on the StateTransitions derivative topic.
func (te *TracedEntity) SetState(s message.EntityState) error {
	if !s.Valid() {
		return fmt.Errorf("core: invalid state %d", s)
	}
	te.mu.Lock()
	from := te.state
	te.state = s
	te.mu.Unlock()
	sr := &message.StateReport{From: from, To: s, At: te.cfg.Clock.Now().UnixNano()}
	return te.send(message.TypeStateReport, sr.Marshal())
}

// ReportLoad publishes a load observation (§3.3).
func (te *TracedEntity) ReportLoad(l sysinfo.Load) error {
	lr := &message.LoadReport{
		CPUPercent:       l.CPUPercent,
		MemoryUsedBytes:  l.MemoryUsedBytes,
		MemoryTotalBytes: l.MemoryTotalBytes,
		Workload:         l.Workload,
		At:               l.At.UnixNano(),
	}
	return te.send(message.TypeLoadReport, lr.Marshal())
}

// EnterSilentMode disables tracing; the broker publishes
// REVERTING_TO_SILENT_MODE (§3.3).
func (te *TracedEntity) EnterSilentMode() error {
	return te.send(message.TypeSilentMode, nil)
}

// Resume re-enables tracing after silent mode.
func (te *TracedEntity) Resume() error {
	return te.send(message.TypeResume, nil)
}

// renewLoop re-delegates before the token expires ("an entity can
// generate a new token, once a token is closer to expiration", §4.3).
func (te *TracedEntity) renewLoop() {
	interval := te.cfg.TokenValidity / 2
	if interval <= 0 {
		interval = time.Minute
	}
	for {
		timer := te.cfg.Clock.NewTimer(interval)
		select {
		case <-timer.C():
		case <-te.done:
			timer.Stop()
			return
		}
		if err := te.sendDelegation(); err != nil {
			return
		}
	}
}

// loadLoop samples and reports load periodically.
func (te *TracedEntity) loadLoop() {
	for {
		timer := te.cfg.Clock.NewTimer(te.cfg.LoadInterval)
		select {
		case <-timer.C():
		case <-te.done:
			timer.Stop()
			return
		}
		_ = te.ReportLoad(te.cfg.LoadProvider.Sample())
	}
}

// Kill abruptly severs the broker connection without the SHUTDOWN
// handshake, simulating a crash: the broker's pings go unanswered and
// failure detection takes over (§3.3). Tests and examples use it.
func (te *TracedEntity) Kill() {
	te.mu.Lock()
	if te.stopped {
		te.mu.Unlock()
		return
	}
	te.stopped = true
	te.mu.Unlock()
	close(te.done)
	_ = te.client().Close()
	te.wg.Wait()
}

// Stop gracefully ends tracing: it reports SHUTDOWN (triggering the
// broker's SHUTDOWN state trace and session teardown) and closes the
// broker connection.
func (te *TracedEntity) Stop() error {
	te.mu.Lock()
	if te.stopped {
		te.mu.Unlock()
		return nil
	}
	te.mu.Unlock()
	_ = te.SetState(message.StateShutdown)
	te.mu.Lock()
	te.stopped = true
	te.mu.Unlock()
	close(te.done)
	te.wg.Wait()
	return te.client().Close()
}
