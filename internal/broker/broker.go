package broker

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"entitytrace/internal/backoff"
	"entitytrace/internal/clock"
	"entitytrace/internal/durable"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// Link lifecycle counters, process-wide.
var (
	mLinkDials = obs.Default.Counter("broker_link_dial_attempts_total")
	mLinkUp    = obs.Default.Counter("broker_link_established_total")
	mLinkLost  = obs.Default.Counter("broker_link_lost_total")
)

// metrics are one broker's own counts, each declared here once, under its
// /metrics name, on the broker's child of obs.Default: one statement per
// event counts it for this broker (Snapshot, Health, the telemetry rows)
// and into the process-wide total of the same name (tests and benchmarks
// run many brokers in one process).
type metrics struct {
	published, deliveredLocal, forwarded, duplicates, violations, expired,
	sheds, throttled, quarRejects, replayRecords, redeliveries *obs.Counter
	// disconnects counts evictions by reason; ReasonNone's slot stays nil.
	disconnects [ReasonQuarantined + 1]*obs.Counter
	// egressDepth is the frames queued across this broker's peers.
	egressDepth *obs.Gauge
}

func newMetrics(reg *obs.Registry) metrics {
	m := metrics{
		published:      reg.Counter("broker_published_total"),
		deliveredLocal: reg.Counter("broker_delivered_local_total"),
		forwarded:      reg.Counter("broker_forwarded_total"),
		duplicates:     reg.Counter("broker_duplicates_total"),
		violations:     reg.Counter("broker_violations_total"),
		expired:        reg.Counter("broker_expired_total"),
		sheds:          reg.Counter("broker_egress_sheds_total"),
		throttled:      reg.Counter("broker_publish_throttled_total"),
		quarRejects:    reg.Counter("broker_quarantine_rejects_total"),
		replayRecords:  reg.Counter("durable_replay_records_total"),
		redeliveries:   reg.Counter("durable_redeliveries_total"),
		egressDepth:    reg.Gauge("broker_egress_queue_depth"),
	}
	// Every reason is registered at zero, so /metrics and the telemetry
	// rows show all three before the first eviction.
	for r := ReasonDoS; r <= ReasonQuarantined; r++ {
		m.disconnects[r] = reg.Counter(obs.WithLabel("broker_disconnects_total", "reason", r.String()))
	}
	return m
}

// Guard inspects messages arriving from peers before they are routed.
// The tracing layer installs a guard that enforces authorization tokens
// on trace topics (§4.3/§5.2); a non-nil error drops the message and
// counts a violation against the sender. now is the broker clock's
// reading for the envelope's ingress batch, the instant to check
// validity at; sampled is the broker's flight-sampling decision for the
// envelope (PROTOCOL.md §3.5), which a recording guard follows for its
// accept events.
type Guard func(env *message.Envelope, from topic.Principal, now time.Time, sampled bool) error

// Config tunes a broker node.
type Config struct {
	// Name identifies the broker in logs and link handshakes.
	Name string
	// Guard optionally vets inbound messages (may be nil).
	Guard Guard
	// ViolationLimit is the decaying violation score at which the broker
	// "will terminate communications with such an entity" (§5.2). A
	// plain violation weighs 1; throttled publishes weigh less. Zero
	// means DefaultViolationLimit.
	ViolationLimit int
	// EgressQueue bounds each peer's outbound data queue (frames). When
	// the queue is full the oldest data frame is shed to admit the new
	// one; control frames have their own priority lane and are never
	// shed. Zero means DefaultEgressQueue.
	EgressQueue int
	// SlowConsumerDeadline is how long a peer's egress queue may stay
	// saturated (continuously shedding) before the peer is classified a
	// slow consumer and evicted with a typed DISCONNECT. Zero means
	// DefaultSlowConsumerDeadline.
	SlowConsumerDeadline time.Duration
	// BatchBytes, when positive, enables egress drain coalescing: each
	// writer pass packs queued data frames up to this many bytes into
	// one frameBatch send (PROTOCOL.md §3.7), amortizing the per-frame
	// transport cost under fan-out load. Control frames are never
	// batched. Zero disables batching.
	BatchBytes int
	// PublishRate, when positive, throttles each client publisher to
	// this many envelopes per second (token bucket, burst PublishBurst)
	// at ingress — before the envelope is unmarshaled or its signature
	// verified. Broker links are exempt (they aggregate many sources).
	// Zero disables rate limiting.
	PublishRate float64
	// PublishBurst is the token-bucket depth for PublishRate. Zero
	// selects max(1, PublishRate).
	PublishBurst int
	// QuarantineDuration is how long an evicted principal's reconnects
	// are refused (typed DISCONNECT(quarantined) at hello). Zero means
	// DefaultQuarantineDuration; negative disables quarantine.
	QuarantineDuration time.Duration
	// Flight, when non-nil, records this broker's routing decisions —
	// ingress, drops, route fan-out, egress enqueues/sheds, evictions,
	// quarantine rejections — into the bounded flight-recorder ring for
	// post-hoc inspection via /trace. Guard verdicts are recorded by the
	// guard itself: give core.GuardConfig.Flight the same recorder. Nil
	// disables recording at the cost of one nil check.
	Flight *obs.FlightRecorder
	// Log is the structured logger; nil silences diagnostics.
	Log *slog.Logger
	// Clock is the broker's time: the publish pipeline's readings (the
	// instant the guard checks validity at, hop stamps, egress stall
	// accounting), quarantine and violation decay, and persistent-link
	// redial backoff. Nil means the real clock. Tests inject clock.Fake
	// to step schedules.
	Clock clock.Clock
	// Durable, when non-nil, persists envelopes on the per-trace-topic
	// derivative class topics (topic.IsTraceDerivative) to the
	// append-only tamper-evident log before fan-out, and enables
	// REPLAY/ACK cursor serving (PROTOCOL.md §3.8). The broker does not
	// own the store: the caller opens it (recovery happens there) and
	// closes it after the broker.
	Durable *durable.Store
}

// Defaults for Config zero values.
const (
	DefaultViolationLimit       = 8
	DefaultEgressQueue          = 512
	DefaultSlowConsumerDeadline = 3 * time.Second
	DefaultQuarantineDuration   = 30 * time.Second
)

// DefaultViolationHalfLife is the half-life of each peer's violation
// score, so sporadic legitimate failures never add up to an unjust
// disconnect; DefaultDedupeWindow is the number of recently admitted
// message IDs duplicate suppression remembers.
const (
	DefaultViolationHalfLife = 30 * time.Second
	DefaultDedupeWindow      = 8192
)

// throttleViolationWeight is how much one rate-limited publish adds to
// the offender score: sustained flooding escalates to a DoS disconnect
// (§5.2 repeat offenders) while a short burst merely gets throttled.
const throttleViolationWeight = 0.125

// evictGrace is how long an eviction waits for the writer to flush the
// typed DISCONNECT before the connection is force-closed regardless.
const evictGrace = 250 * time.Millisecond

// Broker is one router node in the broker network.
type Broker struct {
	cfg  Config
	clk  clock.Clock
	name string
	log  *slog.Logger

	// mu guards the routing index (peers, subs, local) and lifecycle
	// state. The index is read-mostly: every publish takes the read lock
	// in deliver, so concurrent publishers proceed in parallel and only
	// subscription churn (rare) takes the write lock.
	mu    sync.RWMutex
	peers map[*peer]struct{}
	// subs maps subscription topic strings to the peers holding them;
	// a publish is delivered to exactly the set under its own topic.
	subs      map[string]map[subscriberRef]struct{}
	local     map[string][]*localSub
	listeners []transport.Listener
	pending   map[transport.Conn]struct{} // conns awaiting hello
	closed    bool
	done      chan struct{}
	// links indexes broker-link peers by name for the fabric's
	// forward-to-owner unicast (guarded by mu; inbound links are named by
	// their hello, dialed links by Link).
	links map[string]*peer

	// sharding, when installed (SetSharding), is the fabric ownership
	// table consulted once per publish; atomic so the hot path never
	// locks for it.
	sharding atomic.Pointer[shardingRef]

	// linkMu guards linkDials, the stop channels of the redial loops Link
	// runs, by name.
	linkMu    sync.Mutex
	linkDials map[string]chan struct{}

	// seen is the duplicate-suppression window.
	seen *seenSet

	// hookMu guards the callbacks the tracing layer registers.
	hookMu       sync.Mutex
	onDisconnect []func(entity ident.EntityID)
	onSubscribe  []func(tp topic.Topic)

	// quar refuses reconnects from recently evicted principals (§5.2).
	quar *quarantine

	// reg is this broker's child of obs.Default, m the counters on it.
	reg *obs.Registry
	m   metrics

	wg sync.WaitGroup
}

// subscriberRef distinguishes remote peers from in-broker subscribers in
// the subscription index.
type subscriberRef struct {
	p *peer // nil for local subscriptions
}

// localSub is an in-broker subscriber (the tracing layer).
type localSub struct {
	tp      topic.Topic
	handler func(*message.Envelope)
}

// peer is one connection: either a client entity or a neighbouring
// broker link.
type peer struct {
	conn      transport.Conn
	isBroker  bool
	name      string
	principal topic.Principal
	// out is the peer's bounded egress queue, drained by a dedicated
	// writer goroutine (no routing goroutine ever blocks on this peer's
	// connection).
	out *egress
	// score, bucket, dec (the decoder, with its intern tables), and
	// batch and frames (the pipeline's working set, reused across
	// frames) are touched only by the peer's receive loop (one
	// goroutine), so none needs locking.
	score  violationScore
	bucket pubBucket
	dec    *message.Decoder
	batch  []inbound
	frames [][]byte
	// advertised tracks which topics we have propagated SUBs for over
	// this link (broker links only).
	advertised map[string]struct{}
	// subs tracks this peer's own subscriptions.
	subs    map[string]struct{}
	closed  atomic.Bool
	evicted atomic.Bool
	// cursors holds this peer's replay cursors by exact topic string
	// (client connections that sent ctrlReplay); hasCursors lets the
	// delivery hot path skip the map lock for the common cursor-less
	// peer. Guarded by curMu.
	curMu      sync.Mutex
	cursors    map[string]*replayCursor
	hasCursors atomic.Bool
}

// New creates a broker node.
func New(cfg Config) *Broker {
	if cfg.Name == "" {
		cfg.Name = "broker-" + ident.NewUUID().String()[:8]
	}
	if cfg.ViolationLimit <= 0 {
		cfg.ViolationLimit = DefaultViolationLimit
	}
	if cfg.EgressQueue <= 0 {
		cfg.EgressQueue = DefaultEgressQueue
	}
	if cfg.SlowConsumerDeadline <= 0 {
		cfg.SlowConsumerDeadline = DefaultSlowConsumerDeadline
	}
	if cfg.PublishRate > 0 && cfg.PublishBurst <= 0 {
		cfg.PublishBurst = int(cfg.PublishRate)
		if cfg.PublishBurst < 1 {
			cfg.PublishBurst = 1
		}
	}
	if cfg.QuarantineDuration == 0 {
		cfg.QuarantineDuration = DefaultQuarantineDuration
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	reg := obs.Default.Child()
	return &Broker{
		reg:       reg,
		m:         newMetrics(reg),
		cfg:       cfg,
		clk:       cfg.Clock,
		name:      cfg.Name,
		log:       obs.OrDiscard(cfg.Log).With("broker", cfg.Name),
		peers:     make(map[*peer]struct{}),
		subs:      make(map[string]map[subscriberRef]struct{}),
		local:     make(map[string][]*localSub),
		links:     make(map[string]*peer),
		linkDials: make(map[string]chan struct{}),
		pending:   make(map[transport.Conn]struct{}),
		seen:      newSeenSet(DefaultDedupeWindow),
		quar:      newQuarantine(),
		done:      make(chan struct{}),
	}
}

// Name returns the broker's name.
func (b *Broker) Name() string { return b.name }

// Clock returns the broker's time, which the trace manager hosted on it
// shares.
func (b *Broker) Clock() clock.Clock { return b.clk }

// Serve accepts connections from l until the broker or listener closes.
// It returns immediately; accepting happens on background goroutines.
func (b *Broker) Serve(l transport.Listener) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		l.Close()
		return
	}
	b.listeners = append(b.listeners, l)
	b.mu.Unlock()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			b.wg.Add(1)
			go func() {
				defer b.wg.Done()
				b.handleInbound(conn)
			}()
		}
	}()
}

// handleInbound performs the hello handshake for an accepted connection.
func (b *Broker) handleInbound(conn transport.Conn) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		conn.Close()
		return
	}
	b.pending[conn] = struct{}{}
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		delete(b.pending, conn)
		b.mu.Unlock()
	}()
	frame, err := conn.Recv()
	if err != nil {
		conn.Close()
		return
	}
	if len(frame) < 1 || frame[0] != frameControl {
		conn.Close()
		return
	}
	c, err := parseControl(frame[1:])
	if err != nil || c.Kind != ctrlHello {
		conn.Close()
		return
	}
	// Quarantined principals are refused before a peer is even
	// registered: the typed DISCONNECT is the first and only frame of
	// the connection, so the client's reconnect logic can back off
	// instead of hot-looping (§5.2 repeat-offender handling).
	if !c.IsBroker && b.quar.active(c.Name, b.clk.Now()) {
		b.m.quarRejects.Inc()
		if b.cfg.Flight != nil {
			b.cfg.Flight.Record(obs.FlightEvent{Kind: obs.FlightQuarantine, Peer: c.Name})
		}
		b.log.Warn("quarantined reconnect refused", "peer", c.Name)
		_ = conn.Send(disconnectFrame(ReasonQuarantined, "principal quarantined"))
		conn.Close()
		return
	}
	p := b.newPeer(conn, c.IsBroker, c.Name)
	if p == nil {
		conn.Close()
		return
	}
	if c.IsBroker {
		b.syncLinkSubscriptions(p)
	}
	b.peerLoop(p)
}

// Link maintains the broker link named name to the broker at addr over
// tr; it is the one way a broker dials another. The name is what the
// fabric forwards by and what telemetry link rows carry: a peer's broker
// name for fabric links, its address for hand-wired ones. DropLink
// cancels it.
//
// A zero retry policy dials once and returns the dial error; the link
// then lives until it drops. Any other policy returns at once and keeps
// the link up across failures (a second call for the same name is a
// no-op): while no live link of that name exists — an inbound one from
// the same broker counts — it dials, runs the link until it drops and
// waits the policy's next delay, resetting the policy whenever a link
// establishes. Subscriptions re-synchronize on every reconnection, so
// routing recovers when a neighbour restarts. Dial attempts,
// establishments and losses count on broker_link_dial_attempts_total,
// broker_link_established_total and broker_link_lost_total.
func (b *Broker) Link(name string, tr transport.Transport, addr string, retry backoff.Config) error {
	if retry == (backoff.Config{}) {
		mLinkDials.Inc()
		p, err := b.dialLink(tr, addr, name)
		if err != nil {
			return err
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.runLink(p, addr)
		}()
		return nil
	}
	b.linkMu.Lock()
	defer b.linkMu.Unlock()
	if _, ok := b.linkDials[name]; ok {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errors.New("broker: closed")
	}
	stop := make(chan struct{})
	b.linkDials[name] = stop
	b.wg.Add(1)
	go b.redial(tr, addr, name, retry, stop)
	return nil
}

// dialLink dials a peer broker and registers the link under name.
func (b *Broker) dialLink(tr transport.Transport, addr, name string) (*peer, error) {
	conn, err := tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	hello := &control{Kind: ctrlHello, IsBroker: true, Name: b.name}
	if err := conn.Send(append([]byte{frameControl}, marshalControl(hello)...)); err != nil {
		conn.Close()
		return nil, err
	}
	p := b.newPeer(conn, true, name)
	if p == nil {
		conn.Close()
		return nil, errors.New("broker: closed")
	}
	b.syncLinkSubscriptions(p)
	return p, nil
}

// runLink carries an established link until it drops.
func (b *Broker) runLink(p *peer, addr string) {
	mLinkUp.Inc()
	b.log.Info("link established", "peer", p.name, "addr", addr)
	b.peerLoop(p)
	mLinkLost.Inc()
	b.log.Warn("link lost", "peer", p.name)
}

// linkProbeInterval paces the "is the inbound link still up" check a
// redial loop performs while the peer's own dial carries the link.
const linkProbeInterval = 250 * time.Millisecond

// redial is Link's loop under a retry policy: dial, run the link until it
// drops, back off, repeat until the broker closes or stop fires. A live
// link of that name — inbound, say — already is this link, so the loop
// only watches for it to go away. Link has done b.wg.Add(1).
func (b *Broker) redial(tr transport.Transport, addr, name string, retry backoff.Config, stop <-chan struct{}) {
	defer b.wg.Done()
	policy := backoff.New(retry)
	for {
		select {
		case <-b.done:
			return
		case <-stop:
			return
		default:
		}
		delay := linkProbeInterval
		if b.LinkUp(name) {
			policy.Reset()
		} else {
			mLinkDials.Inc()
			if p, err := b.dialLink(tr, addr, name); err == nil {
				policy.Reset()
				b.runLink(p, addr)
			}
			delay = policy.Next()
			b.log.Debug("link redial scheduled", "peer", name, "delay", delay.String())
		}
		t := b.clk.NewTimer(delay)
		select {
		case <-b.done:
			t.Stop()
			return
		case <-stop:
			t.Stop()
			return
		case <-t.C():
		}
	}
}

// newPeer registers a connection as a peer and starts its egress
// writer.
func (b *Broker) newPeer(conn transport.Conn, isBroker bool, name string) *peer {
	p := &peer{
		conn:       conn,
		isBroker:   isBroker,
		name:       name,
		out:        newEgress(conn, b.cfg.EgressQueue, b.cfg.BatchBytes),
		dec:        message.NewDecoder(),
		advertised: make(map[string]struct{}),
		subs:       make(map[string]struct{}),
	}
	p.out.queued = b.m.egressDepth
	if isBroker {
		p.principal = topic.BrokerPrincipal()
	} else {
		p.principal = topic.EntityPrincipal(ident.EntityID(name))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.peers[p] = struct{}{}
	if isBroker && name != "" {
		// Newest link wins the by-name index; removePeer only clears the
		// entry if it still points at the departing peer.
		b.links[name] = p
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		p.out.run()
	}()
	return p
}

// peerLoop pumps frames from a peer until the connection drops.
func (b *Broker) peerLoop(p *peer) {
	defer b.removePeer(p)
	for {
		frame, err := p.conn.Recv()
		if err != nil {
			return
		}
		if len(frame) < 1 {
			continue
		}
		switch frame[0] {
		case frameControl:
			c, err := parseControl(frame[1:])
			if err != nil {
				b.punish(p, fmt.Errorf("bad control frame: %w", err))
				continue
			}
			if done := b.handleControl(p, c); done {
				return
			}
		case frameEnvelope:
			b.publishFrom(p, append(p.batch[:0], inbound{wire: frame[1:]}))
		case frameBatch:
			// A coalesced egress drain from a peer (PROTOCOL.md §3.7):
			// split strictly, then publish the sub-envelopes as one batch.
			// A malformed batch is rejected as a whole — no prefix of it
			// is routed.
			frames, err := parseBatch(p.frames, frame[1:])
			if err != nil {
				b.punish(p, fmt.Errorf("bad batch frame: %w", err))
				continue
			}
			batch := p.batch[:0]
			for _, f := range frames {
				batch = append(batch, inbound{wire: f[1:]})
			}
			clear(frames)
			p.frames = frames
			b.publishFrom(p, batch)
		default:
			b.punish(p, fmt.Errorf("unknown frame kind %d", frame[0]))
		}
		if p.closed.Load() {
			return
		}
	}
}

// publishFrom runs batch, p's working set, through the pipeline and
// keeps it for the next frame, without its envelope references.
func (b *Broker) publishFrom(p *peer, batch []inbound) {
	b.publish(p, batch, false)
	clear(batch)
	p.batch = batch[:0]
}

// parseIngress rate-limits and parses one envelope body from p at the
// batch's clock reading now. It returns nil (after scoring the
// violation) when the frame is throttled or malformed.
func (b *Broker) parseIngress(p *peer, body []byte, now time.Time) *message.Envelope {
	// Per-publisher admission control runs before the envelope is even
	// unmarshaled: a flooding client is rejected before its traffic
	// costs any parsing or signature-verification CPU.
	if b.cfg.PublishRate > 0 && !p.isBroker &&
		!p.bucket.allow(now, b.cfg.PublishRate, float64(b.cfg.PublishBurst)) {
		b.m.throttled.Inc()
		if b.cfg.Flight != nil {
			// The frame is rejected before parsing, so no trace ID.
			b.cfg.Flight.Record(obs.FlightEvent{
				Kind: obs.FlightDrop, Peer: p.name, Reason: "throttled",
			})
		}
		b.punishWeighted(p, throttleViolationWeight, errThrottled)
		return nil
	}
	// Shared parse: the read loop hands over a freshly allocated frame
	// (every transport copies on receive), so the envelope fields can
	// alias it instead of re-copying, and the peer's decoder parses each
	// topic and name it carries once — see message.Decoder.
	env, err := p.dec.Decode(body)
	if err != nil {
		b.punish(p, fmt.Errorf("bad envelope: %w", err))
		return nil
	}
	return env
}

// handleControl processes a control frame; it reports whether the peer
// loop should exit.
func (b *Broker) handleControl(p *peer, c *control) bool {
	switch c.Kind {
	case ctrlSub:
		tp, err := topic.Parse(c.Topic)
		if err != nil {
			b.deny(p, c.ID, err.Error())
			b.punish(p, err)
			return false
		}
		if err := b.authorizeSubscribe(p, tp); err != nil {
			b.deny(p, c.ID, err.Error())
			b.punish(p, err)
			return false
		}
		b.addSubscription(p, tp)
		b.ack(p, c.ID)
	case ctrlUnsub:
		tp, err := topic.Parse(c.Topic)
		if err == nil {
			b.removeSubscription(p, tp)
			p.dropCursor(c.Topic)
		}
		b.ack(p, c.ID)
	case ctrlReplay:
		b.handleReplay(p, c)
	case ctrlAckCur:
		b.handleAckCur(p, c)
	case ctrlBye:
		return true
	case ctrlHello:
		b.punish(p, errors.New("duplicate hello"))
	default:
		// Acks/denies are client-side frames; ignore from peers.
	}
	return false
}

// authorizeSubscribe enforces constrained-topic subscribe rules.
func (b *Broker) authorizeSubscribe(p *peer, tp topic.Topic) error {
	if p.isBroker {
		// Links aggregate downstream subscribers; the terminal broker
		// enforced its own clients.
		return nil
	}
	return topic.Authorize(tp, p.principal, false)
}

// ack / deny send subscription outcomes to client peers.
func (b *Broker) ack(p *peer, id uint64) {
	if p.isBroker || id == 0 {
		return
	}
	b.sendCtrl(p, &control{Kind: ctrlAck, ID: id})
}

func (b *Broker) deny(p *peer, id uint64, reason string) {
	if p.isBroker || id == 0 {
		return
	}
	b.sendCtrl(p, &control{Kind: ctrlDeny, ID: id, Reason: reason})
}

// sendCtrl queues a control frame on the peer's priority lane. A peer
// that cannot absorb even control traffic is wedged beyond rescue and
// evicted on the spot.
func (b *Broker) sendCtrl(p *peer, c *control) {
	if !p.out.enqueueCtrl(append([]byte{frameControl}, marshalControl(c)...)) {
		b.evictPeer(p, ReasonSlowConsumer, "control queue overflow")
	}
}

// disconnectFrame builds the typed DISCONNECT notice.
func disconnectFrame(reason DisconnectReason, detail string) []byte {
	c := &control{Kind: ctrlDisconnect, ID: uint64(reason), Reason: detail}
	return append([]byte{frameControl}, marshalControl(c)...)
}

// errThrottled names the rate-limit violation for logs.
var errThrottled = errors.New("broker: publish rate exceeded")

// punish counts a violation against a peer and disconnects it past the
// limit (§5.2: "In the case of multiple bogus attempts by a malicious
// entity, the broker will terminate communications with such an
// entity").
func (b *Broker) punish(p *peer, err error) {
	b.punishWeighted(p, 1, err)
}

// punishWeighted adds weight to the peer's decaying offender score and
// evicts it once the score crosses the violation limit. Sub-unit
// weights (throttling) log at debug so a flood cannot spam the log.
// The score itself is only touched from the peer's receive loop.
func (b *Broker) punishWeighted(p *peer, weight float64, err error) {
	b.m.violations.Inc()
	if weight >= 1 {
		b.log.Warn("violation", "peer", p.name, "err", err)
	} else {
		b.log.Debug("violation", "peer", p.name, "weight", weight, "err", err)
	}
	score := p.score.add(b.clk.Now(), weight)
	if score >= float64(b.cfg.ViolationLimit) {
		b.evictPeer(p, ReasonDoS, err.Error())
	}
}

// evictPeer terminates a peer deliberately: its queued data is shed, a
// typed DISCONNECT is queued on the control lane, the principal is
// quarantined, and the connection is force-closed after a short grace
// in case the pipe is too wedged to flush the notice. Idempotent.
func (b *Broker) evictPeer(p *peer, reason DisconnectReason, detail string) {
	if !p.evicted.CompareAndSwap(false, true) {
		return
	}
	b.m.disconnects[reason].Inc()
	// DoS and slow-consumer evictions open a fresh quarantine window; a
	// quarantine eviction (Banish) already set its own window, which must
	// not be overwritten with the default duration.
	if !p.isBroker && reason != ReasonQuarantined && b.cfg.QuarantineDuration > 0 {
		b.quar.ban(p.name, b.clk.Now(), b.cfg.QuarantineDuration)
	}
	b.log.Warn("evicting peer", "peer", p.name, "reason", reason.String(), "detail", detail)
	if b.cfg.Flight != nil {
		b.cfg.Flight.Record(obs.FlightEvent{
			Kind:   obs.FlightEvict,
			Peer:   p.name,
			Reason: reason.String() + ": " + detail,
		})
	}
	if dropped := p.out.shedAll(); dropped > 0 {
		b.m.sheds.Add(uint64(dropped))
	}
	p.out.enqueueCtrl(disconnectFrame(reason, detail))
	p.out.beginClose()
	p.closed.Store(true)
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		t := b.clk.NewTimer(evictGrace)
		select {
		case <-t.C():
		case <-b.done:
			t.Stop()
		}
		p.conn.Close()
	}()
}

// Banish quarantines a principal for d and evicts any currently
// connected peers carrying it — the administrative form of §5.2's
// repeat-offender handling.
func (b *Broker) Banish(entity ident.EntityID, d time.Duration) {
	b.quar.ban(string(entity), b.clk.Now(), d)
	b.mu.Lock()
	var victims []*peer
	for p := range b.peers {
		if !p.isBroker && p.name == string(entity) {
			victims = append(victims, p)
		}
	}
	b.mu.Unlock()
	for _, p := range victims {
		b.evictPeer(p, ReasonQuarantined, "banished")
	}
}

// OnClientDisconnect registers a callback invoked whenever a client
// (entity) connection drops, with the entity's identifier. The tracing
// layer uses it to publish DISCONNECT traces (§3.3) without waiting for
// ping timeouts.
func (b *Broker) OnClientDisconnect(f func(entity ident.EntityID)) {
	b.hookMu.Lock()
	defer b.hookMu.Unlock()
	b.onDisconnect = append(b.onDisconnect, f)
}

// OnSubscribe registers a callback invoked, on the subscribing peer's
// goroutine, once for every topic a client or a linked broker newly
// subscribes to (local subscriptions do not count). The tracing layer
// uses it to fetch a trace topic's session key before the first
// session-tagged trace it will carry arrives (PROTOCOL.md §3.7).
func (b *Broker) OnSubscribe(f func(tp topic.Topic)) {
	b.hookMu.Lock()
	defer b.hookMu.Unlock()
	b.onSubscribe = append(b.onSubscribe, f)
}

// hooks returns a snapshot of the callbacks in *list, so they run
// outside hookMu.
func hooks[F any](b *Broker, list *[]F) []F {
	b.hookMu.Lock()
	defer b.hookMu.Unlock()
	return append([]F(nil), *list...)
}

// removePeer unregisters a peer and drops its subscriptions. An
// evicted peer's connection is not closed here: evictPeer has already
// queued the typed DISCONNECT, and closing now would race the egress
// writer's flush of it — the writer closes the conn once the control
// lane drains, with the evictGrace timer as the backstop for a peer
// that has stopped reading. The check consults p.evicted (not
// p.closed): eviction CASes it before queueing the DISCONNECT, so a
// concurrent evictPeer that has queued the notice but not yet reached
// its closed.Store can never see its flush cut short here.
func (b *Broker) removePeer(p *peer) {
	p.stopCursors()
	p.out.beginClose()
	if !p.evicted.Load() {
		p.conn.Close()
	}
	b.mu.Lock()
	if _, ok := b.peers[p]; !ok {
		b.mu.Unlock()
		return
	}
	delete(b.peers, p)
	if p.isBroker && b.links[p.name] == p {
		delete(b.links, p.name)
	}
	affected := make([]string, 0, len(p.subs))
	ref := subscriberRef{p: p}
	for ts := range p.subs {
		if set, ok := b.subs[ts]; ok {
			delete(set, ref)
			if len(set) == 0 {
				delete(b.subs, ts)
			}
		}
		affected = append(affected, ts)
	}
	b.mu.Unlock()
	for _, ts := range affected {
		b.refreshLinks(ts)
	}
	if !p.isBroker {
		for _, f := range hooks(b, &b.onDisconnect) {
			f(ident.EntityID(p.name))
		}
	}
}

// addSubscription indexes a peer subscription, propagates it and, the
// first time p subscribes to tp, runs the OnSubscribe callbacks.
func (b *Broker) addSubscription(p *peer, tp topic.Topic) {
	ts := tp.String()
	b.mu.Lock()
	_, had := p.subs[ts]
	p.subs[ts] = struct{}{}
	set, ok := b.subs[ts]
	if !ok {
		set = make(map[subscriberRef]struct{})
		b.subs[ts] = set
	}
	set[subscriberRef{p: p}] = struct{}{}
	b.mu.Unlock()
	b.refreshLinks(ts)
	if !had {
		for _, f := range hooks(b, &b.onSubscribe) {
			f(tp)
		}
	}
}

// removeSubscription drops a peer subscription and propagates the
// change.
func (b *Broker) removeSubscription(p *peer, tp topic.Topic) {
	ts := tp.String()
	b.mu.Lock()
	delete(p.subs, ts)
	if set, ok := b.subs[ts]; ok {
		delete(set, subscriberRef{p: p})
		if len(set) == 0 {
			delete(b.subs, ts)
		}
	}
	b.mu.Unlock()
	b.refreshLinks(ts)
}

// SubscribeLocal registers an in-broker subscriber with broker
// privileges; the tracing layer uses this for registration and session
// topics. The returned cancel function unsubscribes.
func (b *Broker) SubscribeLocal(tp topic.Topic, handler func(*message.Envelope)) (cancel func()) {
	ts := tp.String()
	ls := &localSub{tp: tp, handler: handler}
	b.mu.Lock()
	b.local[ts] = append(b.local[ts], ls)
	set, ok := b.subs[ts]
	if !ok {
		set = make(map[subscriberRef]struct{})
		b.subs[ts] = set
	}
	set[subscriberRef{}] = struct{}{}
	b.mu.Unlock()
	b.refreshLinks(ts)
	return func() {
		b.mu.Lock()
		lss := b.local[ts]
		for i, cand := range lss {
			if cand == ls {
				b.local[ts] = append(lss[:i], lss[i+1:]...)
				break
			}
		}
		if len(b.local[ts]) == 0 {
			delete(b.local, ts)
			if set, ok := b.subs[ts]; ok {
				delete(set, subscriberRef{})
				if len(set) == 0 {
					delete(b.subs, ts)
				}
			}
		}
		b.mu.Unlock()
		b.refreshLinks(ts)
	}
}

// propagatable reports whether subscriptions/publishes on ts travel
// between brokers: constrained topics with Suppress/Limited distribution
// stay local to the hosting broker.
func propagatable(ts string) bool {
	tp, err := topic.Parse(ts)
	return err == nil && topic.Propagates(tp)
}

// refreshLinks reconciles the SUB state of every broker link for one
// topic: a link should hold our SUB iff some subscriber other than that
// link wants the topic and the topic propagates.
func (b *Broker) refreshLinks(ts string) {
	type action struct {
		p   *peer
		sub bool
	}
	var actions []action
	prop := propagatable(ts)
	b.mu.Lock()
	set := b.subs[ts]
	for p := range b.peers {
		if !p.isBroker {
			continue
		}
		want := false
		if prop && b.shardAdvertiseOK(ts, p) {
			for ref := range set {
				if ref.p != p {
					want = true
					break
				}
			}
		}
		_, have := p.advertised[ts]
		if want && !have {
			p.advertised[ts] = struct{}{}
			actions = append(actions, action{p, true})
		} else if !want && have {
			delete(p.advertised, ts)
			actions = append(actions, action{p, false})
		}
	}
	b.mu.Unlock()
	for _, a := range actions {
		kind := ctrlSub
		if !a.sub {
			kind = ctrlUnsub
		}
		b.sendCtrl(a.p, &control{Kind: kind, Topic: ts})
	}
}

// syncLinkSubscriptions advertises all current topics to a new link.
func (b *Broker) syncLinkSubscriptions(p *peer) {
	b.mu.Lock()
	topics := make([]string, 0, len(b.subs))
	for ts, set := range b.subs {
		if !propagatable(ts) || !b.shardAdvertiseOK(ts, p) {
			continue
		}
		for ref := range set {
			if ref.p != p {
				topics = append(topics, ts)
				break
			}
		}
	}
	for _, ts := range topics {
		p.advertised[ts] = struct{}{}
	}
	b.mu.Unlock()
	for _, ts := range topics {
		b.sendCtrl(p, &control{Kind: ctrlSub, Topic: ts})
	}
}

// Publish injects a broker-originated envelope (broker principal): the
// tracing layer publishes pings and traces through this.
func (b *Broker) Publish(env *message.Envelope) error {
	one := [1]inbound{{env: env}}
	return b.publish(nil, one[:], false)
}

// ErrNoPunish, wrapped into a guard rejection, marks a drop that is not
// the delivering peer's fault: the envelope is discarded but no
// violation is scored against the peer. The session-key layer uses it
// for tags referencing a session this broker has not (or no longer)
// installed — a correct forwarder delivering such a message is evidence
// the verifier should renegotiate, not that the peer misbehaves.
var ErrNoPunish = errors.New("broker: drop without violation")

// flightTraceOf derives the flight-recorder correlation ID for an
// envelope: the span's TraceID when present, the envelope ID otherwise.
func flightTraceOf(env *message.Envelope) obs.FlightTrace {
	if env.Span != nil {
		return obs.FlightTrace(env.Span.TraceID)
	}
	return obs.FlightTrace(env.ID)
}

// flightPeerName names the ingress source for flight events.
func flightPeerName(from *peer) string {
	if from == nil {
		return "local"
	}
	return from.name
}

// recordDrop appends an always-on drop event to the flight recorder
// (no-op when recording is disabled).
func (b *Broker) recordDrop(from *peer, env *message.Envelope, reason string) {
	if b.cfg.Flight == nil {
		return
	}
	b.cfg.Flight.Record(obs.FlightEvent{
		Kind:   obs.FlightDrop,
		Trace:  flightTraceOf(env),
		Peer:   flightPeerName(from),
		Topic:  env.Topic.String(),
		Reason: reason,
	})
}

// admission is how much of the admit stage an envelope owes this broker.
type admission uint8

const (
	admitFull  admission = iota // dedupe, TTL, source, topic authorization, guard
	admitFanIn                  // dedupe and TTL only: the shard owner ran the rest
	admitNone                   // handoff replay: admitted here when first published
)

// plan is the plan stage's verdict on one envelope (see Broker.plan for
// the table): what each later stage of the pipeline does with it.
type plan struct {
	admission   admission
	persist     bool  // append to the durable log before fan-out
	owner       *peer // link for the unicast hop to the topic's shard owner; nil when none
	skipBrokers bool  // fan out to local subscribers and clients only, never over links
}

// inbound is one envelope crossing the publish pipeline.
type inbound struct {
	wire    []byte            // encoding as received; nil for a local publish
	env     *message.Envelope // parsed from wire by the first stage; nil once dropped
	plan    plan
	sampled bool // record this envelope's healthy flight events (drops always are)
}

// publish is the one publish pipeline: a frameEnvelope or frameBatch
// from a peer, a local Publish and a handoff replay all cross the same
// stages in the same order, as a batch — a lone envelope is a batch of
// one:
//
//	throttle+parse → plan → admit → persist → count → deliver
//
// The first three run per envelope. Then everything the batch persists
// reaches the append-only log, one group append per topic, before any of
// it fans out (PROTOCOL.md §3.8), so replay can always reconstruct what
// was delivered and a coalesced frame pays the append bookkeeping once.
// The batch reads the clock once for throttling and admission (the
// guard's validity check included), and each envelope it forwards once
// more, when its frame is built, for its hop stamp and egress stall
// accounting; the batch's counts reach the registry in one add each.
// from is nil for a local publish, whose rejection is returned; a
// peer's rejections are scored against it instead. replay marks a
// handoff replay (ReforwardSharded).
func (b *Broker) publish(from *peer, batch []inbound, replay bool) (rejected error) {
	now := b.clk.Now()
	for i := range batch {
		in := &batch[i]
		if from != nil && from.closed.Load() {
			// Evicted mid-batch: nothing further of its traffic is admitted.
			batch = batch[:i]
			break
		}
		if in.env == nil {
			if in.env = b.parseIngress(from, in.wire, now); in.env == nil {
				continue
			}
		}
		// One atomic add decides whether this envelope's healthy events
		// (ingress, guard, route, egress) are recorded; drops always are.
		in.sampled = b.cfg.Flight.Sampled()
		pl, ok := b.plan(from, in.env.Topic.String(), replay)
		if ok && pl.admission != admitNone {
			var err error
			ok, err = b.admit(from, in, pl.admission, now)
			switch {
			case err == nil:
			case from == nil:
				rejected = err
			case !errors.Is(err, ErrNoPunish):
				b.punish(from, err)
			}
		}
		if !ok {
			in.env = nil
			continue
		}
		pl.persist = pl.persist && b.cfg.Durable != nil && topic.IsTraceDerivative(in.env.Topic)
		in.plan = pl
	}
	// The persisted bytes are the original wire encoding; only a local
	// publish, which has none, is marshaled. The batch's first durable
	// topic is grouped on the stack — a lone envelope allocates nothing
	// here — and only a batch that mixes topics pays for the map.
	var stack [4][]byte
	first, firstTopic := stack[:0], ""
	var rest map[string][][]byte
	for i := range batch {
		in := &batch[i]
		if !in.plan.persist {
			continue
		}
		if in.wire == nil {
			in.wire = in.env.Marshal()
		}
		if ts := in.env.Topic.String(); len(first) == 0 || ts == firstTopic {
			first, firstTopic = append(first, in.wire), ts
		} else {
			if rest == nil {
				rest = make(map[string][][]byte)
			}
			rest[ts] = append(rest[ts], in.wire)
		}
	}
	// Append failure degrades durability, not liveness — the envelopes
	// still fan out, and the error is counted and logged.
	appendGroup := func(ts string, payloads [][]byte) {
		if _, err := b.cfg.Durable.AppendBatch(ts, payloads); err != nil {
			mDurableAppendErrs.Inc()
			b.log.Warn("durable append failed", "topic", ts, "err", err)
		}
	}
	if len(first) > 0 {
		appendGroup(firstTopic, first)
	}
	for ts, payloads := range rest {
		appendGroup(ts, payloads)
	}
	ps := passPool.Get().(*pass)
	for i := range batch {
		in := &batch[i]
		if in.env == nil {
			continue
		}
		if in.plan.admission != admitNone {
			ps.published++
		}
		if in.plan.admission == admitFanIn {
			ps.fanIns++
		}
		b.deliver(from, in, ps)
	}
	b.settle(ps)
	return rejected
}

// admit is the admit stage — flight ingress sampling, duplicate
// suppression, TTL, then (unless the shard owner already ran them, level
// admitFanIn) the checks of authorize. It reports whether the envelope
// proceeds; ok=false with a nil error is a silent drop (duplicate or
// expired). The dedupe window records an ID only once its envelope has
// passed every check: a copy the broker refuses — a forgery, a session
// tag it cannot verify yet — must not suppress the genuine envelope
// that follows it.
func (b *Broker) admit(from *peer, in *inbound, level admission, now time.Time) (ok bool, err error) {
	env := in.env
	if in.sampled {
		b.cfg.Flight.Record(obs.FlightEvent{
			Kind:  obs.FlightIngress,
			Trace: flightTraceOf(env),
			Peer:  flightPeerName(from),
			Topic: env.Topic.String(),
		})
	}
	// Duplicate suppression (also guards against routing loops): a probe
	// here, so a duplicate costs no authorization work, and the
	// authoritative record below.
	if b.seen.contains(env.ID) {
		b.dropDuplicate(from, env)
		return false, nil
	}
	if env.TTL == 0 {
		b.m.expired.Inc()
		b.recordDrop(from, env, "ttl_expired")
		return false, nil
	}
	if level != admitFanIn {
		if err := b.authorize(from, in, now); err != nil {
			return false, err
		}
	}
	// A concurrent copy may have been admitted since the probe.
	if !b.firstSighting(env.ID) {
		b.dropDuplicate(from, env)
		return false, nil
	}
	return true, nil
}

// firstSighting records the message ID, reporting whether it was new
// (see seenSet).
func (b *Broker) firstSighting(id ident.UUID) bool { return b.seen.add(id) }

// dropDuplicate counts and records a duplicate, a silent drop.
func (b *Broker) dropDuplicate(from *peer, env *message.Envelope) {
	b.m.duplicates.Inc()
	b.recordDrop(from, env, "duplicate")
}

// authorize runs the admit stage's checks: source spoofing, topic
// authorization and the pluggable guard, which is handed the batch's
// clock reading now and the envelope's sampling decision.
func (b *Broker) authorize(from *peer, in *inbound, now time.Time) error {
	env := in.env
	// Source spoofing check: a client's envelopes must carry its own
	// entity identifier. Broker links aggregate many sources.
	principal := topic.BrokerPrincipal()
	if from != nil {
		principal = from.principal
		if !from.isBroker && env.Source != ident.EntityID(from.name) {
			b.recordDrop(from, env, "spoofed_source")
			return fmt.Errorf("broker: source %q spoofed by client %q", env.Source, from.name)
		}
	}
	if err := topic.Authorize(env.Topic, principal, true); err != nil {
		b.recordDrop(from, env, "unauthorized_topic")
		return err
	}
	if b.cfg.Guard != nil {
		// Guard rejections are recorded by the guard itself (with the
		// drop reason and cache outcome); see Config.Flight.
		return b.cfg.Guard(env, principal, now, in.sampled)
	}
	return nil
}

// pass is one publish call's deliver-stage state, shared by its
// envelopes: the fan-out scratch each delivery reuses and the counts the
// call adds to the registry once, at the end.
type pass struct {
	locals []*localSub
	remote []*peer

	published, fanIns, deliveredLocal, forwarded, fabricForwards uint64
}

var passPool = sync.Pool{New: func() any { return new(pass) }}

// clearFanout empties the fan-out scratch for the next delivery.
func (ps *pass) clearFanout() {
	clear(ps.locals)
	clear(ps.remote)
	ps.locals, ps.remote = ps.locals[:0], ps.remote[:0]
}

// settle adds the pass's counts to the registry and returns it to the
// pool.
func (b *Broker) settle(ps *pass) {
	add := func(c *obs.Counter, n uint64) {
		if n > 0 {
			c.Add(n)
		}
	}
	add(b.m.published, ps.published)
	add(mFabricFanIn, ps.fanIns)
	add(b.m.deliveredLocal, ps.deliveredLocal)
	add(b.m.forwarded, ps.forwarded)
	add(mFabricForwards, ps.fabricForwards)
	*ps = pass{locals: ps.locals, remote: ps.remote}
	passPool.Put(ps)
}

// deliver is the deliver stage: hand the envelope to local subscribers,
// then enqueue one shared frame on the owner link (the unicast hop of
// the forward-to-owner rule) and on every interested peer. It holds only
// the routing index's read lock while collecting subscribers, so
// concurrent publishers do not serialize.
func (b *Broker) deliver(from *peer, in *inbound, ps *pass) {
	env, pl := in.env, in.plan
	ts := env.Topic.String()
	defer ps.clearFanout()
	if pl.owner != nil {
		ps.remote = append(ps.remote, pl.owner)
	}
	// A handoff replay bound for a remote owner is the unicast hop alone:
	// this broker's own subscribers heard the envelope when it was first
	// published here.
	if pl.owner == nil || pl.admission != admitNone {
		b.mu.RLock()
		// b.subs[ts] is a set, so the owner link, already queued, is the
		// only peer that could appear twice.
		for ref := range b.subs[ts] {
			if ref.p == nil || ref.p == from || ref.p == pl.owner {
				continue
			}
			ps.remote = append(ps.remote, ref.p)
		}
		ps.locals = append(ps.locals, b.local[ts]...)
		b.mu.RUnlock()
	}

	if in.sampled {
		b.cfg.Flight.Record(obs.FlightEvent{
			Kind:  obs.FlightRoute,
			Trace: flightTraceOf(env),
			N:     len(ps.remote),
			N2:    len(ps.locals),
		})
	}
	for _, ls := range ps.locals {
		ls.handler(env)
	}
	ps.deliveredLocal += uint64(len(ps.locals))
	prop := topic.Propagates(env.Topic)
	var frame []byte
	var now time.Time // read once, with the frame: hop stamp and stall clock
	for _, p := range ps.remote {
		// The one link rule: a frame whose decremented TTL is exhausted
		// never leaves on a link — the owner hop included — and beyond the
		// owner hop links carry only topics that propagate, and nothing
		// under skipBrokers (fan-in and forwarded deliveries stay off
		// links, which keeps fabric routing one-hop and loop-free).
		if p.isBroker && (env.TTL <= 1 || p != pl.owner && (pl.skipBrokers || !prop)) {
			continue
		}
		// A peer holding a replay cursor on this exact topic is served
		// solely by its pump: the log is the single ordered source, so
		// catch-up and live delivery cannot race or duplicate.
		if p.hasCursors.Load() && p.cursorFor(ts) != nil {
			continue
		}
		if frame == nil {
			now = b.clk.Now()
			frame = b.forwardFrame(in, now)
		}
		ps.forwarded++
		if p == pl.owner {
			ps.fabricForwards++
		}
		if in.sampled {
			b.cfg.Flight.Record(obs.FlightEvent{
				Kind:  obs.FlightEgress,
				Trace: flightTraceOf(env),
				Peer:  p.name,
			})
		}
		b.enqueue(p, frame, flightTraceOf(env), now)
	}
}

// forwardFrame builds, in one allocation, the frame every peer the
// envelope fans out to is sent, with this broker's hop stamped at at —
// the time the envelope leaves this broker's pipeline. An envelope that
// arrived from a peer is forwarded as the bytes it arrived in: one copy,
// the TTL byte decremented, the hop appended to its span trailer
// (message.SpliceForward). A local publish, which arrived as no bytes, is
// serialized once the same way (message.Envelope.AppendForward).
func (b *Broker) forwardFrame(in *inbound, at time.Time) []byte {
	hop := message.HopWireSize(b.name)
	if in.wire == nil {
		frame := append(make([]byte, 0, 1+in.env.WireSize()+hop), frameEnvelope)
		return in.env.AppendForward(frame, b.name, at)
	}
	frame := append(make([]byte, 0, 1+len(in.wire)+hop), frameEnvelope)
	frame, err := message.SpliceForward(frame, in.wire, b.name, at)
	if err != nil {
		// in.wire is bytes the decoder accepted or Marshal's output, and
		// SpliceForward accepts every such encoding (FuzzSpliceForward):
		// only a bug reaches here.
		panic(fmt.Sprintf("broker: splicing an accepted envelope: %v", err))
	}
	return frame
}

// enqueue queues one data frame on p's egress without blocking: a
// stalled peer sheds its own oldest frames instead of head-of-line-
// blocking the caller, every shed is counted and flight-recorded, and
// once the queue has been continuously saturated past the deadline the
// peer is evicted as a slow consumer — enqueue then reports false.
func (b *Broker) enqueue(p *peer, frame []byte, trace obs.FlightTrace, now time.Time) bool {
	shed, stalledFor := p.out.enqueueData(frame, now)
	if shed == 0 {
		return true
	}
	b.m.sheds.Add(uint64(shed))
	if b.cfg.Flight != nil {
		b.cfg.Flight.Record(obs.FlightEvent{Kind: obs.FlightShed, Trace: trace, Peer: p.name, N: shed})
	}
	if stalledFor < b.cfg.SlowConsumerDeadline {
		return true
	}
	b.evictPeer(p, ReasonSlowConsumer, "egress queue saturated")
	return false
}

// Snapshot returns this broker's own counters and gauges, under their
// /metrics names.
func (b *Broker) Snapshot() obs.Snapshot { return b.reg.Snapshot() }

// PeerHealth is one peer's row in a broker health snapshot.
type PeerHealth struct {
	// Name is the peer's entity ID or broker name.
	Name string
	// IsBroker distinguishes links from client connections.
	IsBroker bool
	// Queued is the peer's current egress data-queue depth (frames).
	Queued int
	// Score is the peer's decaying offender score as of its last update.
	Score float64
}

// Health is a point-in-time topology/health snapshot of one broker, the
// one read the telemetry tick (PROTOCOL.md §3.10) builds its rows from.
type Health struct {
	// Name is the broker's name.
	Name string
	// Peers lists connected peers (links and clients), sorted by name.
	Peers []PeerHealth
	// Subscriptions counts distinct subscribed topic strings.
	Subscriptions int
	// Metrics holds the broker's counters and gauges as its registry
	// names them — a telemetry row's name is its /metrics name.
	Metrics obs.Snapshot
	// FlightHead is the flight recorder's latest sequence number (0 when
	// recording is disabled).
	FlightHead uint64
	// FabricEpoch/FabricMembers/FabricOwnedPerMille snapshot the fabric
	// ownership table (all zero outside a fabric): the epoch number, the
	// live member count, and this broker's share of the hash circle in
	// per-mille.
	FabricEpoch         uint64
	FabricMembers       int
	FabricOwnedPerMille int
}

// Health snapshots the broker's topology and per-peer queue/offender
// state.
func (b *Broker) Health() Health {
	h := Health{Name: b.name, Metrics: b.reg.Snapshot(), FlightHead: b.cfg.Flight.Head()}
	if s := b.shardingOf(); s != nil {
		info := s.Info()
		h.FabricEpoch = info.Epoch
		h.FabricMembers = info.Members
		h.FabricOwnedPerMille = info.OwnedPerMille
	}
	b.mu.RLock()
	h.Subscriptions = len(b.subs)
	peers := make([]*peer, 0, len(b.peers))
	for p := range b.peers {
		peers = append(peers, p)
	}
	b.mu.RUnlock()
	h.Peers = make([]PeerHealth, 0, len(peers))
	for _, p := range peers {
		h.Peers = append(h.Peers, PeerHealth{
			Name:     p.name,
			IsBroker: p.isBroker,
			Queued:   p.out.depth(),
			Score:    p.score.current(),
		})
	}
	sort.Slice(h.Peers, func(i, j int) bool { return h.Peers[i].Name < h.Peers[j].Name })
	return h
}

// PeerCount reports connected peers (clients + links).
func (b *Broker) PeerCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.peers)
}

// SubscriptionCount reports distinct subscribed topic strings.
func (b *Broker) SubscriptionCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.subs)
}

// HasSubscription reports whether any subscriber holds exactly ts; the
// tests and the tracing layer use it to await propagation.
func (b *Broker) HasSubscription(ts string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.subs[ts]
	return ok
}

// Close shuts the broker down: listeners stop, peers drop.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	close(b.done)
	peers := make([]*peer, 0, len(b.peers))
	for p := range b.peers {
		peers = append(peers, p)
	}
	pending := make([]transport.Conn, 0, len(b.pending))
	for c := range b.pending {
		pending = append(pending, c)
	}
	listeners := b.listeners
	b.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for _, p := range peers {
		p.closed.Store(true)
		p.out.beginClose()
		p.conn.Close()
	}
	for _, c := range pending {
		c.Close()
	}
	b.wg.Wait()
}
