package core

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"entitytrace/internal/avail"
	"entitytrace/internal/backoff"
	"entitytrace/internal/broker"
	"entitytrace/internal/clock"
	"entitytrace/internal/credential"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/secure"
	"entitytrace/internal/tdn"
	"entitytrace/internal/topic"
)

// TopicDiscoverer finds trace topics; both *tdn.Client and *tdn.Node
// satisfy it.
type TopicDiscoverer interface {
	Discover(query string, requester ident.EntityID, cert []byte) ([]*tdn.Advertisement, error)
}

// TrackerConfig configures a tracker.
type TrackerConfig struct {
	// Identity is the tracker's credential with private key (needed for
	// credentialed discovery, interest responses and secured traces).
	Identity *credential.Identity
	// Verifier validates advertisements and tokens.
	Verifier *credential.Verifier
	// Discovery runs the credential-gated trace-topic discovery (§3.4).
	Discovery TopicDiscoverer
	// Resolver resolves trace topics during message verification; when
	// nil, a resolver primed from discovered advertisements is used.
	Resolver AdResolver
	// Client is the tracker's broker connection. The tracker takes
	// ownership and closes it on Close.
	Client *broker.Client
	// Clock stamps events and validates tokens.
	Clock clock.Clock
	// Log is the structured logger; nil silences diagnostics.
	Log *slog.Logger
	// Avail, when set, receives availability observations derived from
	// every verified trace: the ledger runs directly on the delivery
	// path (its steady-state update is a few tens of nanoseconds) and
	// turns the stream into uptime ratios, MTBF/MTTR, flap state and
	// time-to-detect per tracked entity.
	Avail *avail.Ledger
	// Redial, when set, enables automatic reconnect: when the broker
	// connection drops, the tracker dials a replacement client via
	// Redial (paced by ReconnectBackoff), re-subscribes every live
	// watch's topics and re-issues gauge interest so brokers resume
	// publishing without waiting for the next gauge round.
	Redial func() (*broker.Client, error)
	// ReconnectBackoff paces Redial attempts; the zero value selects
	// the backoff package defaults.
	ReconnectBackoff backoff.Config
	// Replay enables durable catch-up (PROTOCOL.md §3.8): every
	// trace-class subscription is accompanied by a REPLAY request from
	// the watch's last acknowledged log offset, so traces published
	// while the tracker was disconnected are redelivered. The watch
	// dedupes by offset and by trace timestamp, so the availability
	// ledger observes each transition exactly once even across broker
	// restarts. Brokers without a durable log deny the request and the
	// tracker degrades to live-only delivery.
	Replay bool
}

// Tracker-side delivery accounting and end-to-end path timing.
var (
	mTrackerDelivered = obs.Default.Counter("tracker_delivered_total")
	mTrackerRejected  = obs.Default.Counter("tracker_rejected_total")
	// tracker_replay_dupes_total counts deliveries dropped by the §3.8
	// exactly-once guards: a durable record at or below the watch's ack
	// cursor, or a trace whose timestamp does not advance the per-class
	// high-water mark (the Subscribe→Replay overlap window and
	// cross-restart offset spaces both land here).
	mTrackerReplayDupes = obs.Default.Counter("tracker_replay_dupes_total")
	// trace_hop_ms observes each adjacent-hop delta of a delivered
	// envelope's span; trace_end_to_end_ms observes first-to-last.
	// Both are subject to inter-node clock skew.
	mTraceHop      = obs.Default.Histogram("trace_hop_ms", nil)
	mTraceEndToEnd = obs.Default.Histogram("trace_end_to_end_ms", nil)
)

// e2eSecondsBuckets are the upper bounds of the per-stage end-to-end
// latency histograms, in seconds (100µs .. 10s).
var e2eSecondsBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Per-stage end-to-end latency attribution, fed from skew-normalized
// trace assemblies (internal/obs Assemble): the full entity→tracker
// path plus its entity→broker, broker→broker and broker→tracker
// segments.
var (
	mE2ETotal         = obs.Default.Histogram(obs.WithLabel("e2e_latency_seconds", "stage", "total"), e2eSecondsBuckets)
	mE2EEntityBroker  = obs.Default.Histogram(obs.WithLabel("e2e_latency_seconds", "stage", "entity_to_broker"), e2eSecondsBuckets)
	mE2EBrokerBroker  = obs.Default.Histogram(obs.WithLabel("e2e_latency_seconds", "stage", "broker_to_broker"), e2eSecondsBuckets)
	mE2EBrokerTracker = obs.Default.Histogram(obs.WithLabel("e2e_latency_seconds", "stage", "broker_to_tracker"), e2eSecondsBuckets)
)

// Tracker consumes traces for entities it is authorized to track (§3.4):
// it discovers trace topics with its credentials, subscribes to the
// derivative topics it cares about, answers gauge-interest probes, and
// verifies (and decrypts) every delivered trace.
type Tracker struct {
	cfg TrackerConfig
	log *slog.Logger
	// warnLim rate-limits the per-trace and per-record warning paths
	// (rejected traces, failed acks, denied replays) to one line per
	// second per entity, carrying a suppressed count — a broker outage
	// or a flood of bad traces must not turn the log into the hot path.
	warnLim *obs.LogLimiter
	caching *CachingResolver
	// guard authenticates every delivered envelope. Its session store
	// holds the §6.3 keys hosting brokers deliver, so session-tagged
	// traces verify with one HMAC instead of RSA; it is always present: a
	// tracker that never receives keys rejects session-tagged envelopes
	// as unknown (and asks for the key).
	guard *Guard

	mu      sync.Mutex
	cl      *broker.Client // current broker connection (swapped on reconnect)
	watches map[ident.UUID]*Watch
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup
}

// watchSub is one broker subscription of a watch, remembered with its
// handler so reconnect can re-issue it on a fresh client.
type watchSub struct {
	tp      topic.Topic
	handler func(*message.Envelope)
}

// Watch is a live trace subscription for one traced entity.
type Watch struct {
	tk         *Tracker
	entity     ident.EntityID
	traceTopic ident.UUID
	classes    topic.ClassSet
	handler    func(Event)

	keyTopic topic.Topic

	mu       sync.Mutex
	traceKey *secure.SymmetricKey
	stopped  bool
	subs     []watchSub
	// sessReqLast rate-limits session-key renegotiation requests.
	sessReqLast time.Time
	// counters for observability and benchmarks
	delivered uint64
	rejected  uint64
	// Durable replay state (PROTOCOL.md §3.8), per trace class.
	// durCursor is the highest durable-log offset processed this
	// connection — the fast dedupe path for pump retransmissions, reset
	// on reconnect because a restarted broker may serve a new offset
	// space. lastAt is the highest trace timestamp handed to the ledger
	// and handler; it survives reconnects and is what makes delivery
	// exactly-once across the Subscribe→Replay overlap window and
	// broker restarts.
	replayOn  bool
	durCursor [topic.NumTraceClasses]uint64
	lastAt    [topic.NumTraceClasses]int64
}

// NewTracker connects a tracker runtime to its broker client.
func NewTracker(cfg TrackerConfig) (*Tracker, error) {
	if cfg.Identity == nil || cfg.Identity.Private == nil {
		return nil, errors.New("core: tracker needs an identity with a private key")
	}
	if cfg.Client == nil || cfg.Verifier == nil {
		return nil, errors.New("core: tracker needs Client and Verifier")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	log := obs.OrDiscard(cfg.Log)
	tk := &Tracker{cfg: cfg, cl: cfg.Client, log: log,
		warnLim: obs.NewLogLimiter(log, time.Second, cfg.Clock.Now),
		watches: make(map[ident.UUID]*Watch), done: make(chan struct{})}
	cfg.Client.SetLogger(log)
	if cr, ok := cfg.Resolver.(*CachingResolver); ok {
		tk.caching = cr
	} else if cfg.Resolver == nil {
		tk.caching = NewCachingResolver(ResolverFunc(func(ident.UUID) (*tdn.Advertisement, error) {
			return nil, ErrUnknownTopic
		}))
		tk.cfg.Resolver = tk.caching
	}
	tk.guard = NewGuard(GuardConfig{
		Resolver: tk.cfg.Resolver,
		Verifier: cfg.Verifier,
		Clock:    cfg.Clock,
		Cache:    NewTokenCache(0),
		Sessions: NewSessionStore(0),
	})
	tk.guard.OnUnknownSession(tk.requestSessionKey)
	if cfg.Redial != nil {
		tk.wg.Add(1)
		go func() {
			defer tk.wg.Done()
			tk.reconnectLoop()
		}()
	}
	return tk, nil
}

// client returns the current broker connection; reconnect swaps it.
func (tk *Tracker) client() *broker.Client {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return tk.cl
}

// reconnectLoop resumes tracking after connection loss: every live
// watch's subscriptions are re-issued on the fresh client, then interest
// is re-announced so brokers begin publishing again immediately (§3.5).
func (tk *Tracker) reconnectLoop() {
	r := &reconnector{
		clk:    tk.cfg.Clock,
		done:   tk.done,
		policy: backoff.New(tk.cfg.ReconnectBackoff),
		client: tk.client,
		redial: tk.cfg.Redial,
		resume: func(cl *broker.Client) error {
			tk.mu.Lock()
			if tk.closed {
				tk.mu.Unlock()
				return errStopped
			}
			tk.cl = cl
			cl.SetLogger(tk.log)
			watches := make([]*Watch, 0, len(tk.watches))
			for _, w := range tk.watches {
				watches = append(watches, w)
			}
			tk.mu.Unlock()
			for _, w := range watches {
				if err := w.resubscribe(cl); err != nil {
					return err
				}
			}
			for _, w := range watches {
				w.sendInterest()
			}
			return nil
		},
		attempt: mReconnAttemptTracker,
		success: mReconnOKTracker,
	}
	r.run()
}

func (tk *Tracker) entity() ident.EntityID { return tk.cfg.Identity.Credential.Entity }

// Sessions returns the tracker's §6.3 session-key store (tests and
// chaos harnesses inspect and poison it).
func (tk *Tracker) Sessions() *SessionStore { return tk.guard.sessions }

// Entity returns the tracker's identifier.
func (tk *Tracker) Entity() ident.EntityID { return tk.entity() }

// Discover finds the trace topic for a traced entity via the
// /Liveness/<Entity-ID> query, presenting the tracker's credentials
// (§3.4). It fails for topics the tracker is not authorized to discover.
func (tk *Tracker) Discover(entity ident.EntityID) (*tdn.Advertisement, error) {
	if tk.cfg.Discovery == nil {
		return nil, errors.New("core: tracker has no discovery service")
	}
	ads, err := tk.cfg.Discovery.Discover(topic.LivenessQuery(entity), tk.entity(), tk.cfg.Identity.Credential.Cert)
	if err != nil {
		return nil, fmt.Errorf("core: discovering trace topic for %s: %w", entity, err)
	}
	// Multiple TDNs may hold the advertisement; any verified copy works.
	for _, ad := range ads {
		if _, err := ad.Verify(tk.cfg.Verifier, tk.cfg.Clock.Now()); err == nil {
			if tk.caching != nil {
				tk.caching.Put(ad)
			}
			return ad, nil
		}
	}
	return nil, errors.New("core: no verifiable advertisement")
}

// Track subscribes to the selected trace classes for the advertised
// entity and begins answering gauge-interest probes. handler runs on the
// client's receive goroutine; keep it fast or hand off to a channel.
func (tk *Tracker) Track(ad *tdn.Advertisement, classes topic.ClassSet, handler func(Event)) (*Watch, error) {
	if classes.Empty() {
		return nil, errors.New("core: no trace classes selected")
	}
	if handler == nil {
		return nil, errors.New("core: nil handler")
	}
	tk.mu.Lock()
	if tk.closed {
		tk.mu.Unlock()
		return nil, errors.New("core: tracker closed")
	}
	if _, dup := tk.watches[ad.TopicID]; dup {
		tk.mu.Unlock()
		return nil, fmt.Errorf("core: already tracking topic %s", ad.TopicID)
	}
	tk.mu.Unlock()
	if tk.caching != nil {
		tk.caching.Put(ad)
	}

	keyTopic, err := keyDeliveryTopic(tk.entity(), ad.TopicID)
	if err != nil {
		return nil, err
	}
	w := &Watch{
		tk:         tk,
		entity:     ad.Owner,
		traceTopic: ad.TopicID,
		classes:    classes,
		handler:    handler,
		keyTopic:   keyTopic,
	}

	// Subscribe to each selected derivative topic (§3.4: "subscribe to
	// the appropriate constrained topics over which different types of
	// trace info is published").
	cl := tk.client()
	for _, class := range classes.Classes() {
		class := class
		tp := topic.ForClass(ad.TopicID, class)
		handler := func(env *message.Envelope) {
			w.handleTrace(class, env)
		}
		if err := cl.Subscribe(tp, handler); err != nil {
			w.unsubscribeAll()
			return nil, fmt.Errorf("core: subscribing to %s: %w", tp, err)
		}
		w.subs = append(w.subs, watchSub{tp, handler})
	}
	// Gauge-interest probes (§3.5).
	probeTopic := topic.GaugeInterest(ad.TopicID)
	if err := cl.Subscribe(probeTopic, w.handleGaugeInterest); err != nil {
		w.unsubscribeAll()
		return nil, err
	}
	w.subs = append(w.subs, watchSub{probeTopic, w.handleGaugeInterest})
	// Key deliveries for secured traces (§5.1).
	if err := cl.Subscribe(keyTopic, w.handleKeyDelivery); err != nil {
		w.unsubscribeAll()
		return nil, err
	}
	w.subs = append(w.subs, watchSub{keyTopic, w.handleKeyDelivery})

	// Durable catch-up: replay the retained log of every class topic so
	// traces published before this tracker arrived still reach the
	// ledger (§3.8).
	if err := w.startReplay(cl); err != nil {
		w.unsubscribeAll()
		return nil, err
	}

	tk.mu.Lock()
	tk.watches[ad.TopicID] = w
	tk.mu.Unlock()

	// Announce interest proactively so the broker can start publishing
	// without waiting for its next gauge round.
	w.sendInterest()
	return w, nil
}

// TrackEntity is the common discover-then-track sequence in one call:
// it resolves the entity's trace topic with the tracker's credentials
// (§3.4) and subscribes to the selected classes.
func (tk *Tracker) TrackEntity(entity ident.EntityID, classes topic.ClassSet, handler func(Event)) (*Watch, error) {
	ad, err := tk.Discover(entity)
	if err != nil {
		return nil, err
	}
	return tk.Track(ad, classes, handler)
}

// Close stops all watches and the underlying client.
func (tk *Tracker) Close() error {
	tk.mu.Lock()
	if tk.closed {
		tk.mu.Unlock()
		return nil
	}
	tk.closed = true
	watches := make([]*Watch, 0, len(tk.watches))
	for _, w := range tk.watches {
		watches = append(watches, w)
	}
	tk.mu.Unlock()
	for _, w := range watches {
		w.Stop()
	}
	close(tk.done)
	err := tk.client().Close()
	tk.wg.Wait()
	return err
}

// Entity returns the traced entity this watch follows.
func (w *Watch) Entity() ident.EntityID { return w.entity }

// TraceTopic returns the watched trace topic.
func (w *Watch) TraceTopic() ident.UUID { return w.traceTopic }

// Delivered and Rejected report verified deliveries and dropped
// messages.
func (w *Watch) Delivered() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.delivered
}

// Rejected reports messages dropped by verification.
func (w *Watch) Rejected() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rejected
}

// HasTraceKey reports whether the §5.1 trace key has been delivered.
func (w *Watch) HasTraceKey() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.traceKey != nil
}

// Stop unsubscribes the watch.
func (w *Watch) Stop() {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.stopped = true
	w.mu.Unlock()
	w.unsubscribeAll()
	w.tk.mu.Lock()
	delete(w.tk.watches, w.traceTopic)
	w.tk.mu.Unlock()
}

func (w *Watch) unsubscribeAll() {
	cl := w.tk.client()
	w.mu.Lock()
	subs := w.subs
	w.subs = nil
	w.mu.Unlock()
	for _, s := range subs {
		_ = cl.Unsubscribe(s.tp)
	}
}

// resubscribe re-issues every subscription of this watch on a fresh
// client after reconnect.
func (w *Watch) resubscribe(cl *broker.Client) error {
	w.mu.Lock()
	stopped := w.stopped
	subs := append([]watchSub(nil), w.subs...)
	w.mu.Unlock()
	if stopped {
		return nil
	}
	for _, s := range subs {
		if err := cl.Subscribe(s.tp, s.handler); err != nil {
			return err
		}
	}
	return w.startReplay(cl)
}

// startReplay issues a durable REPLAY for each class topic of this
// watch from the last acknowledged offset (§3.8). A broker denial —
// durability not enabled there — degrades the watch to live-only
// delivery; any other failure is a connection error and propagates.
func (w *Watch) startReplay(cl *broker.Client) error {
	if !w.tk.cfg.Replay {
		return nil
	}
	w.mu.Lock()
	w.replayOn = true
	w.mu.Unlock()
	for _, class := range w.classes.Classes() {
		class := class
		tp := topic.ForClass(w.traceTopic, class)
		w.mu.Lock()
		since := w.durCursor[class]
		// A fresh connection may land on a restarted broker serving a
		// new offset space, so the offset floor resets; the lastAt
		// high-water mark keeps redelivered traces exactly-once.
		w.durCursor[class] = 0
		w.mu.Unlock()
		err := cl.Replay(tp, since, func(offset uint64, env *message.Envelope) {
			w.handleDurableTrace(class, offset, env)
		})
		if errors.Is(err, broker.ErrReplayDenied) {
			w.tk.warnLim.Warn(string(w.entity), "durable replay denied; tracking live-only",
				"entity", w.entity, "topic", tp.String(), "err", err)
			return nil
		}
		if err != nil {
			return fmt.Errorf("core: replay on %s: %w", tp, err)
		}
	}
	return nil
}

// handleDurableTrace processes one offset-annotated record from a
// replay pump: records at or below the offset floor are pump
// retransmissions and drop immediately; everything else takes the
// normal verification path (whose timestamp guard catches duplicates
// spanning offset spaces) and is then acknowledged so the broker
// advances its redelivery cursor.
func (w *Watch) handleDurableTrace(class topic.TraceClass, offset uint64, env *message.Envelope) {
	w.mu.Lock()
	if offset <= w.durCursor[class] {
		w.mu.Unlock()
		mTrackerReplayDupes.Inc()
		return
	}
	w.durCursor[class] = offset
	w.mu.Unlock()
	w.handleTrace(class, env)
	if err := w.tk.client().Ack(topic.ForClass(w.traceTopic, class), offset); err != nil {
		w.tk.warnLim.Warn(string(w.entity), "durable ack failed", "entity", w.entity, "err", err)
	}
}

// handleGaugeInterest answers GUAGE_INTEREST probes (§3.5). The probe
// itself is a broker-published trace message and is verified like any
// other.
func (w *Watch) handleGaugeInterest(env *message.Envelope) {
	if env.Type != message.TraceGaugeInterest {
		return
	}
	now := w.tk.cfg.Clock.Now()
	if err := w.verifyEnv(env, now); err != nil {
		w.reject("gauge probe: %v", err)
		return
	}
	w.sendInterest()
}

// verifyEnv authenticates one broker-published envelope of this watch's
// trace topic through the tracker's guard.
func (w *Watch) verifyEnv(env *message.Envelope, now time.Time) error {
	_, err := w.tk.guard.Verify(env, w.traceTopic, now)
	return err
}

// requestSessionKey is the guard's unknown-session hook: the watch on
// the envelope's trace topic asks for the key.
func (tk *Tracker) requestSessionKey(traceTopic ident.UUID, _ [secure.SessionIDLen]byte) {
	tk.mu.Lock()
	w := tk.watches[traceTopic]
	tk.mu.Unlock()
	if w != nil {
		w.requestSessionKey(tk.cfg.Clock.Now())
	}
}

// requestSessionKey publishes a rate-limited SESSION_KEY_REQUEST for
// this watch's topic, asking the hosting broker to seal the current
// session parameters to the tracker's credential; the response arrives
// on the watch's key-delivery topic.
func (w *Watch) requestSessionKey(now time.Time) {
	w.mu.Lock()
	if w.stopped || (!w.sessReqLast.IsZero() && now.Sub(w.sessReqLast) < sessionRequestMinInterval) {
		w.mu.Unlock()
		return
	}
	w.sessReqLast = now
	w.mu.Unlock()
	mSessionKeyRequests.Inc()
	req := &message.SessionKeyRequest{
		TraceTopic:    w.traceTopic,
		Requester:     w.tk.entity(),
		CertDER:       w.tk.cfg.Identity.Credential.Cert,
		DeliveryTopic: w.keyTopic.String(),
	}
	env := message.New(message.TypeSessionKeyRequest, topic.SessionKeyRequests(w.traceTopic), w.tk.entity(), req.Marshal())
	if err := w.tk.client().Publish(env); err != nil {
		w.tk.log.Warn("session key request publish failed", "entity", w.entity, "err", err)
	}
}

// sendInterest publishes the tracker's interest set with its credential
// and key-delivery topic (§3.5, §5.1).
func (w *Watch) sendInterest() {
	ir := &message.InterestResponse{
		Tracker:          w.tk.entity(),
		TraceTopic:       w.traceTopic,
		Classes:          w.classes,
		CertDER:          w.tk.cfg.Identity.Credential.Cert,
		KeyDeliveryTopic: w.keyTopic.String(),
	}
	env := message.New(message.TypeInterestResponse, topic.GaugeInterestResponse(w.traceTopic), w.tk.entity(), ir.Marshal())
	if err := w.tk.client().Publish(env); err != nil {
		w.tk.log.Error("interest response publish failed", "entity", w.entity, "err", err)
	}
}

// handleKeyDelivery opens a sealed trace key (§5.1).
func (w *Watch) handleKeyDelivery(env *message.Envelope) {
	if env.Type == message.TypeSessionKeyResponse {
		w.handleSessionKey(env)
		return
	}
	if env.Type != message.TypeKeyDelivery {
		return
	}
	now := w.tk.cfg.Clock.Now()
	// Key deliveries are broker trace messages: token + delegate
	// signature.
	if err := w.verifyEnv(env, now); err != nil {
		w.reject("key delivery: %v", err)
		return
	}
	sealed, err := secure.UnmarshalSealedPayload(env.Payload)
	if err != nil {
		w.reject("key delivery payload: %v", err)
		return
	}
	body, err := sealed.Open(w.tk.cfg.Identity.Private)
	if err != nil {
		w.reject("key delivery open: %v", err)
		return
	}
	tkd, err := message.UnmarshalTraceKey(body)
	if err != nil || tkd.Purpose != message.PurposeTrace {
		w.reject("key delivery decode")
		return
	}
	key, err := secure.SymmetricKeyFromBytes(tkd.Key)
	if err != nil {
		w.reject("key material: %v", err)
		return
	}
	w.mu.Lock()
	w.traceKey = key
	w.mu.Unlock()
	w.tk.log.Info("trace key received", "entity", w.entity,
		"algorithm", tkd.Algorithm, "padding", tkd.Padding)
}

// handleSessionKey installs a sealed §6.3 session key: the response
// envelope is fully RSA-verified (the one expensive check the session
// path amortizes), opened with the tracker's credential key, bound
// against the response's token and installed in the tracker-wide store.
func (w *Watch) handleSessionKey(env *message.Envelope) {
	now := w.tk.cfg.Clock.Now()
	sr, err := message.UnmarshalSessionKeyResponse(env.Payload)
	if err != nil || sr.TraceTopic != w.traceTopic || sr.Recipient != w.tk.entity() {
		return
	}
	key, err := w.tk.guard.OpenSessionKeyResponse(env, sr, w.tk.cfg.Identity.Private, now)
	if err != nil {
		w.reject("session key response: %v", err)
		return
	}
	w.tk.guard.sessions.Install(w.traceTopic, key)
	w.tk.log.Info("session key received", "entity", w.entity)
}

// handleTrace verifies, decrypts and dispatches one trace message.
func (w *Watch) handleTrace(class topic.TraceClass, env *message.Envelope) {
	now := w.tk.cfg.Clock.Now()
	if err := w.verifyEnv(env, now); err != nil {
		w.reject("trace on %s: %v", class, err)
		return
	}
	payload := env.Payload
	encrypted := env.Flags&message.FlagEncrypted != 0
	if encrypted {
		w.mu.Lock()
		key := w.traceKey
		w.mu.Unlock()
		if key == nil {
			w.reject("encrypted trace before key delivery")
			return
		}
		pt, err := key.Decrypt(payload)
		if err != nil {
			w.reject("trace decrypt: %v", err)
			return
		}
		payload = pt
	}
	ev, err := decodeTraceEvent(env, class, payload, encrypted, now)
	if err != nil {
		w.reject("trace decode: %v", err)
		return
	}
	if ev.TraceTopic != w.traceTopic {
		w.reject("trace for foreign topic")
		return
	}
	w.mu.Lock()
	if w.replayOn {
		// Exactly-once floor (§3.8): a trace whose timestamp does not
		// advance the per-class high-water mark was already delivered —
		// via the live path during the Subscribe→Replay window, or in a
		// previous offset space before a broker restart.
		at := ev.SentAt.UnixNano()
		if at <= w.lastAt[class] {
			w.mu.Unlock()
			mTrackerReplayDupes.Inc()
			return
		}
		w.lastAt[class] = at
	}
	w.delivered++
	handler := w.handler
	stopped := w.stopped
	w.mu.Unlock()
	mTrackerDelivered.Inc()
	if env.Span != nil {
		observeSpan(env.Span)
		w.observePath(env.Span, string(ev.Entity), now)
	}
	if w.tk.cfg.Avail != nil {
		w.observeAvail(ev, now)
	}
	if !stopped {
		handler(ev)
	}
}

// observeAvail feeds the verified trace into the availability ledger.
// Only confirmed-down observations pay for hop conversion: their span
// lets the ledger skew-correct time-to-detect the same way the
// waterfall normalizes stage latencies.
func (w *Watch) observeAvail(ev Event, now time.Time) {
	kind, ok := avail.KindForType(ev.Type)
	if !ok {
		return
	}
	ob := avail.Observation{
		Entity: string(ev.Entity),
		Kind:   kind,
		At:     ev.SentAt,
		SeenAt: now,
	}
	if kind == avail.KindDown && len(ev.Hops) > 0 {
		hops := make([]obs.HopRecord, 0, len(ev.Hops)+1)
		for _, h := range ev.Hops {
			hops = append(hops, obs.HopRecord{Node: h.Node, AtNanos: h.AtNanos})
		}
		hops = append(hops, obs.HopRecord{Node: string(w.tk.entity()), AtNanos: now.UnixNano()})
		ob.Hops = hops
	}
	w.tk.cfg.Avail.Observe(ob)
}

// observePath reassembles the delivered flow (span hops plus the local
// receive hop) with clock-skew normalization and attributes each segment
// to a path stage: the first segment leaving the traced entity is
// entity→broker, the segment arriving here is broker→tracker, and
// everything in between is broker→broker forwarding.
func (w *Watch) observePath(sp *message.Span, entity string, now time.Time) {
	hops := make([]obs.HopRecord, 0, len(sp.Hops)+1)
	for _, h := range sp.Hops {
		hops = append(hops, obs.HopRecord{Node: h.Node, AtNanos: h.AtNanos})
	}
	hops = append(hops, obs.HopRecord{Node: string(w.tk.entity()), AtNanos: now.UnixNano()})
	asm := obs.Assemble(hops)
	if asm == nil || len(asm.Segments) == 0 {
		return
	}
	mE2ETotal.Observe(float64(asm.TotalNanos) / 1e9)
	for i, seg := range asm.Segments {
		h := mE2EBrokerBroker
		switch {
		case i == 0 && seg.From == entity:
			h = mE2EEntityBroker
		case i == len(asm.Segments)-1:
			h = mE2EBrokerTracker
		}
		h.Observe(float64(seg.Nanos) / 1e9)
	}
}

// observeSpan feeds a delivered envelope's hop record into the path
// histograms. Clock skew between nodes can produce negative deltas;
// those are skipped rather than recorded as zero.
func observeSpan(sp *message.Span) {
	for _, d := range sp.HopLatencies() {
		if d >= 0 {
			mTraceHop.ObserveDuration(d)
		}
	}
	if n := len(sp.Hops); n >= 2 {
		if total := time.Duration(sp.Hops[n-1].AtNanos - sp.Hops[0].AtNanos); total >= 0 {
			mTraceEndToEnd.ObserveDuration(total)
		}
	}
}

func (w *Watch) reject(format string, args ...any) {
	w.mu.Lock()
	w.rejected++
	w.mu.Unlock()
	mTrackerRejected.Inc()
	w.tk.warnLim.Warn(string(w.entity), "trace rejected", "entity", w.entity, "err", fmt.Sprintf(format, args...))
}
