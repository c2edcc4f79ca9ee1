package broker

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"entitytrace/internal/clock"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// Client errors.
var (
	// ErrSubscribeDenied reports a subscription rejected by the broker's
	// authorization checks.
	ErrSubscribeDenied = errors.New("broker: subscription denied")
	// ErrReplayDenied reports a replay request the broker refused: no
	// durable log, a non-durable topic, or no active subscription.
	ErrReplayDenied = errors.New("broker: replay denied")
	// ErrClientClosed reports use of a closed client.
	ErrClientClosed = errors.New("broker: client closed")
	// ErrWriteTimeout reports a frame write that stayed blocked past the
	// client's write timeout — the broker (or the pipe to it) stopped
	// reading. The connection is torn down so Done fires and reconnect
	// logic can take over.
	ErrWriteTimeout = errors.New("broker: write timed out")
)

// Inbound frames the client could not use, by reason. Nothing reaches a
// handler from a dropped frame, so without the counter a broker that
// sends what the client cannot parse looks like a silent subscription.
var (
	mDropKind          = clientDropCounter("unknown_kind")
	mDropControl       = clientDropCounter("bad_control")
	mDropEnvelope      = clientDropCounter("bad_envelope")
	mDropDurable       = clientDropCounter("bad_durable")
	mDropBatch         = clientDropCounter("bad_batch")
	mDropBatchEnvelope = clientDropCounter("bad_batch_envelope")
)

// clientDrop pairs a drop reason with its counter.
type clientDrop struct {
	reason string
	n      *obs.Counter
}

func clientDropCounter(reason string) clientDrop {
	return clientDrop{reason, obs.Default.Counter(obs.WithLabel("client_frames_dropped_total", "reason", reason))}
}

// subscribeTimeout bounds the wait for a subscription acknowledgement.
const subscribeTimeout = 10 * time.Second

// DefaultWriteTimeout bounds each frame write to the broker when
// ConnectOpts.WriteTimeout is zero. Without it a publish into a dead TCP
// peer blocks forever.
const DefaultWriteTimeout = 10 * time.Second

// ConnectOpts tunes a client connection.
type ConnectOpts struct {
	// WriteTimeout bounds each outbound frame write. Zero selects
	// DefaultWriteTimeout; negative disables the deadline entirely.
	WriteTimeout time.Duration
}

// Handler consumes envelopes delivered to a client subscription.
type Handler func(*message.Envelope)

// DurableHandler consumes offset-annotated envelopes served by a
// replay pump (frameDurable). The offset is the record's position in
// the broker's durable topic log: strictly increasing within one
// uninterrupted stream, repeating only on redelivery — dedupe on it,
// process, then Ack it (PROTOCOL.md §3.8).
type DurableHandler func(offset uint64, env *message.Envelope)

// Client is an entity's connection to its broker: the funnel through
// which it publishes messages into the network and receives messages for
// its subscriptions (§2: "an entity uses this broker, which it is
// connected to, to funnel messages to the broker network").
type Client struct {
	entity ident.EntityID
	conn   transport.Conn

	mu       sync.Mutex
	handlers map[string][]Handler // topic string -> handlers
	wild     []wildHandler
	durable  map[string]DurableHandler // topic string -> replay handler
	pending  map[uint64]chan *control
	closed   bool

	defaultHandler atomic.Value // Handler
	warn           atomic.Pointer[obs.LogLimiter]
	nextID         atomic.Uint64
	// reason records the typed DISCONNECT cause announced by the broker
	// before it dropped the connection (zero = ReasonNone).
	reason atomic.Uint64
	done   chan struct{}

	// Write path: writeMu admits one frame write at a time, writeStart
	// holds the clock reading (unix nanoseconds) taken when the write in
	// flight began, 0 while none is, and the watchdog goroutine tears
	// the connection down — setting timedOut first — once that write is
	// older than writeTimeout.
	clk          clock.Clock
	writeTimeout time.Duration
	writeMu      sync.Mutex
	writeStart   atomic.Int64
	timedOut     atomic.Bool
}

type wildHandler struct {
	tp topic.Topic
	h  Handler
}

// Connect dials a broker and performs the client handshake with default
// options.
func Connect(tr transport.Transport, addr string, entity ident.EntityID) (*Client, error) {
	return ConnectWith(tr, addr, entity, ConnectOpts{})
}

// ConnectWith dials a broker with explicit options.
func ConnectWith(tr transport.Transport, addr string, entity ident.EntityID, opts ConnectOpts) (*Client, error) {
	if err := entity.Validate(); err != nil {
		return nil, err
	}
	if opts.WriteTimeout == 0 {
		opts.WriteTimeout = DefaultWriteTimeout
	}
	conn, err := tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	hello := &control{Kind: ctrlHello, IsBroker: false, Name: string(entity)}
	if err := conn.Send(append([]byte{frameControl}, marshalControl(hello)...)); err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{
		entity:       entity,
		conn:         conn,
		handlers:     make(map[string][]Handler),
		pending:      make(map[uint64]chan *control),
		done:         make(chan struct{}),
		clk:          clock.Real{},
		writeTimeout: opts.WriteTimeout,
	}
	go c.recvLoop()
	if c.writeTimeout > 0 {
		go c.writeWatchdog()
	}
	return c, nil
}

// Entity returns the client's entity identifier.
func (c *Client) Entity() ident.EntityID { return c.entity }

// OnUnhandled installs a handler for envelopes that match none of the
// subscription handlers (e.g. replies on topics subscribed before a
// handler change).
func (c *Client) OnUnhandled(h Handler) { c.defaultHandler.Store(h) }

// SetLogger installs the logger for the client's warnings (dropped
// inbound frames), paced to one line per reason per second. Without one
// the client counts drops and logs nothing.
func (c *Client) SetLogger(l *obs.Logger) {
	c.warn.Store(obs.NewLogLimiter(l.With("client", string(c.entity)), time.Second, c.clk.Now))
}

// drop accounts one unusable inbound frame.
func (c *Client) drop(d clientDrop, err error) {
	d.n.Inc()
	c.warn.Load().Warn(d.reason, "dropped inbound frame", "reason", d.reason, "err", err)
}

// recvLoop pumps frames from the broker, decoding them with the
// connection's own Decoder.
func (c *Client) recvLoop() {
	defer c.shutdown()
	dec := message.NewDecoder()
	var frames [][]byte // batch sub-frames, reused
	for {
		frame, err := c.conn.Recv()
		if err != nil {
			return
		}
		if len(frame) < 1 {
			c.drop(mDropKind, errors.New("empty frame"))
			continue
		}
		switch frame[0] {
		case frameControl:
			ctl, err := parseControl(frame[1:])
			if err != nil {
				c.drop(mDropControl, err)
				continue
			}
			if ctl.Kind == ctrlDisconnect {
				c.reason.Store(uint64(ctl.ID))
				continue
			}
			if ctl.Kind == ctrlAck || ctl.Kind == ctrlDeny {
				c.mu.Lock()
				ch := c.pending[ctl.ID]
				delete(c.pending, ctl.ID)
				c.mu.Unlock()
				if ch != nil {
					ch <- ctl
				}
			}
		case frameEnvelope:
			env, err := dec.Decode(frame[1:])
			if err != nil {
				c.drop(mDropEnvelope, err)
				continue
			}
			c.dispatch(env)
		case frameDurable:
			// An offset-annotated replay/live record from a pump
			// (PROTOCOL.md §3.8). A registered durable handler gets the
			// offset; otherwise the envelope degrades to plain dispatch.
			offset, inner, err := parseDurable(frame[1:])
			if err != nil {
				c.drop(mDropDurable, err)
				continue
			}
			env, err := dec.Decode(inner[1:])
			if err != nil {
				c.drop(mDropDurable, err)
				continue
			}
			ts := env.Topic.String()
			c.mu.Lock()
			dh := c.durable[ts]
			c.mu.Unlock()
			if dh != nil {
				dh(offset, env)
			} else {
				c.dispatch(env)
			}
		case frameBatch:
			// A coalesced egress drain from the broker (PROTOCOL.md §3.7).
			var err error
			if frames, err = parseBatch(frames, frame[1:]); err != nil {
				c.drop(mDropBatch, err)
				continue
			}
			for _, f := range frames {
				env, err := dec.Decode(f[1:])
				if err != nil {
					c.drop(mDropBatchEnvelope, err)
					continue
				}
				c.dispatch(env)
			}
		default:
			c.drop(mDropKind, fmt.Errorf("frame kind %d", frame[0]))
		}
	}
}

// dispatch routes an incoming envelope to matching handlers, which run
// outside the lock on a copy of the matching set (on the stack for the
// usual handful).
func (c *Client) dispatch(env *message.Envelope) {
	ts := env.Topic.String()
	var stack [4]Handler
	c.mu.Lock()
	hs := append(stack[:0], c.handlers[ts]...)
	for _, wh := range c.wild {
		if env.Topic.Matches(wh.tp) {
			hs = append(hs, wh.h)
		}
	}
	c.mu.Unlock()
	if len(hs) == 0 {
		if dh, ok := c.defaultHandler.Load().(Handler); ok && dh != nil {
			dh(env)
		}
		return
	}
	for _, h := range hs {
		h(env)
	}
}

// Subscribe registers interest in a topic and waits for the broker's
// acknowledgement, so a successful return means subsequent publishes on
// the topic (at this broker) will be delivered.
func (c *Client) Subscribe(tp topic.Topic, h Handler) error {
	if tp.IsZero() {
		return fmt.Errorf("broker: subscribe to zero topic")
	}
	id := c.nextID.Add(1)
	ch := make(chan *control, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	c.pending[id] = ch
	c.mu.Unlock()

	sub := &control{Kind: ctrlSub, ID: id, Topic: tp.String()}
	if err := c.send(append([]byte{frameControl}, marshalControl(sub)...)); err != nil {
		return err
	}
	select {
	case ctl := <-ch:
		if ctl == nil {
			return ErrClientClosed
		}
		if ctl.Kind == ctrlDeny {
			return fmt.Errorf("%w: %s", ErrSubscribeDenied, ctl.Reason)
		}
	case <-c.done:
		return ErrClientClosed
	case <-time.After(subscribeTimeout):
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return fmt.Errorf("broker: subscribe to %s timed out", tp)
	}
	c.mu.Lock()
	ts := tp.String()
	c.handlers[ts] = append(c.handlers[ts], h)
	if tp.IsWildcard() {
		c.wild = append(c.wild, wildHandler{tp: tp, h: h})
	}
	c.mu.Unlock()
	return nil
}

// Replay asks the broker to serve the (already subscribed) durable
// topic from its log starting after since — the highest offset this
// consumer has processed, 0 for everything retained — and registers h
// for the offset-annotated stream. From the broker's ack onward the
// topic is served exclusively by its replay pump: catch-up records
// first, then live appends, in log order. Call Ack as records are
// processed; un-acked records are redelivered with backoff. A deny
// (no durable log at this broker, topic not persisted) leaves the
// plain live subscription in place.
func (c *Client) Replay(tp topic.Topic, since uint64, h DurableHandler) error {
	if tp.IsZero() {
		return fmt.Errorf("broker: replay of zero topic")
	}
	ts := tp.String()
	id := c.nextID.Add(1)
	ch := make(chan *control, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	// Register before sending: the pump's first records can arrive
	// ahead of the ack.
	if c.durable == nil {
		c.durable = make(map[string]DurableHandler)
	}
	c.durable[ts] = h
	c.pending[id] = ch
	c.mu.Unlock()

	replay := &control{Kind: ctrlReplay, ID: id, Topic: ts, Cursor: since}
	if err := c.send(append([]byte{frameControl}, marshalControl(replay)...)); err != nil {
		c.dropDurable(ts)
		return err
	}
	select {
	case ctl := <-ch:
		if ctl == nil {
			c.dropDurable(ts)
			return ErrClientClosed
		}
		if ctl.Kind == ctrlDeny {
			c.dropDurable(ts)
			return fmt.Errorf("%w: %s", ErrReplayDenied, ctl.Reason)
		}
	case <-c.done:
		c.dropDurable(ts)
		return ErrClientClosed
	case <-time.After(subscribeTimeout):
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		c.dropDurable(ts)
		return fmt.Errorf("broker: replay of %s timed out", tp)
	}
	return nil
}

func (c *Client) dropDurable(ts string) {
	c.mu.Lock()
	delete(c.durable, ts)
	c.mu.Unlock()
}

// Ack advances this client's replay cursor on tp: offset is the
// highest contiguously processed record. Fire-and-forget — the broker
// applies it monotonically, so a lost or reordered ack only delays
// cursor progress (and at worst causes an offset-deduped redelivery).
func (c *Client) Ack(tp topic.Topic, offset uint64) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClientClosed
	}
	ack := &control{Kind: ctrlAckCur, Topic: tp.String(), Cursor: offset}
	return c.send(append([]byte{frameControl}, marshalControl(ack)...))
}

// Unsubscribe withdraws interest in a topic and removes its handlers.
func (c *Client) Unsubscribe(tp topic.Topic) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	ts := tp.String()
	delete(c.handlers, ts)
	delete(c.durable, ts)
	if tp.IsWildcard() {
		kept := c.wild[:0]
		for _, wh := range c.wild {
			if !wh.tp.Equal(tp) {
				kept = append(kept, wh)
			}
		}
		c.wild = kept
	}
	c.mu.Unlock()
	unsub := &control{Kind: ctrlUnsub, ID: c.nextID.Add(1), Topic: ts}
	return c.send(append([]byte{frameControl}, marshalControl(unsub)...))
}

// Publish sends an envelope into the broker network. The envelope's
// Source must be the client's entity (brokers drop spoofed sources). The
// write is bounded by the connection's write timeout: if the broker has
// stopped reading, Publish returns ErrWriteTimeout and tears the
// connection down rather than blocking forever.
func (c *Client) Publish(env *message.Envelope) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClientClosed
	}
	frame := make([]byte, 1, 1+env.WireSize())
	frame[0] = frameEnvelope
	return c.send(env.AppendWire(frame, env.TTL))
}

// send writes one frame under the write deadline. Writes are serialized
// so the one in flight can be timed by the watchdog without a goroutine,
// channel or timer per frame. On timeout the client shuts down: closing
// the connection both unblocks the stuck write and fires Done so
// reconnect machinery takes over — a write that cannot complete within
// the deadline means the broker-side pipe is dead or wedged, and no
// later write would fare better.
func (c *Client) send(frame []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.writeStart.Store(c.clk.Now().UnixNano())
	err := c.conn.Send(frame)
	c.writeStart.Store(0)
	if err != nil && c.timedOut.Load() {
		return ErrWriteTimeout
	}
	return err
}

// writeWatchdog is the client's one write timer. It sleeps a full
// writeTimeout while no write is in flight, otherwise until the write
// in flight comes of age, and shuts the client down when it finds one
// that has. It exits with the client.
func (c *Client) writeWatchdog() {
	t := c.clk.NewTimer(c.writeTimeout)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C():
		}
		wait := c.writeTimeout
		if start := c.writeStart.Load(); start != 0 {
			wait = c.writeTimeout - time.Duration(c.clk.Now().UnixNano()-start)
			if wait <= 0 {
				c.timedOut.Store(true)
				c.shutdown()
				return
			}
		}
		t.Reset(wait)
	}
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	bye := &control{Kind: ctrlBye}
	_ = c.send(append([]byte{frameControl}, marshalControl(bye)...))
	err := c.conn.Close()
	c.shutdown()
	return err
}

// shutdown marks the client closed and releases waiters.
func (c *Client) shutdown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
	close(c.done)
	c.conn.Close()
}

// Done is closed when the connection drops; entities use it to detect
// broker failure.
func (c *Client) Done() <-chan struct{} { return c.done }

// DisconnectReason returns the typed cause the broker announced before
// terminating the connection, or ReasonNone when the connection dropped
// without one (network failure, orderly close, broker crash). Reconnect
// logic backs off harder when Evicted() is true: the broker threw this
// client out deliberately, so hot-looping against it only feeds the
// quarantine.
func (c *Client) DisconnectReason() DisconnectReason {
	return DisconnectReason(c.reason.Load())
}
