// Package broker implements the NaradaBrokering-style publish/subscribe
// substrate of §2: cooperating broker nodes that route topic-addressed
// messages between producers and consumers. Entities connect to one
// broker and funnel messages through it; brokers propagate subscriptions
// to each other and forward messages along links with interested
// subscribers. Constrained topics (§3.1) are enforced at every broker,
// and an optional message guard lets the tracing layer impose
// authorization-token checks (§4.3) with denial-of-service accounting
// (§5.2).
package broker

import (
	"encoding/binary"
	"errors"
	"fmt"

	"entitytrace/internal/wire"
)

// Frame kinds on the wire: a one-byte discriminator precedes either a
// control body, a marshaled message envelope, or a batch of envelope
// frames coalesced by the egress writer (PROTOCOL.md §3.7).
const (
	frameControl  byte = 1
	frameEnvelope byte = 2
	frameBatch    byte = 3
	// frameDurable is a broker→client envelope annotated with its
	// durable-log offset: [kind][u64 offset][envelope frame]. Replay
	// pumps use it so the consumer can dedupe and ack by offset
	// (PROTOCOL.md §3.8).
	frameDurable byte = 4
)

// appendDurable appends the durable wire form: kind byte, offset, and
// the complete envelope frame (its own kind byte included).
func appendDurable(dst []byte, offset uint64, envFrame []byte) []byte {
	dst = append(dst, frameDurable)
	dst = binary.BigEndian.AppendUint64(dst, offset)
	return append(dst, envFrame...)
}

// parseDurable splits a durable frame body (after the kind byte) into
// its offset and the inner envelope frame. Strict: the inner frame must
// be a non-empty frameEnvelope within the length cap.
func parseDurable(b []byte) (uint64, []byte, error) {
	if len(b) < 9 {
		return 0, nil, errors.New("broker: truncated durable frame")
	}
	offset := binary.BigEndian.Uint64(b[:8])
	inner := b[8:]
	if len(inner) > maxBatchFrameLen {
		return 0, nil, fmt.Errorf("broker: durable frame length %d exceeds %d", len(inner), maxBatchFrameLen)
	}
	if inner[0] != frameEnvelope {
		return 0, nil, fmt.Errorf("broker: durable inner frame kind %d (only envelopes replay)", inner[0])
	}
	return offset, inner, nil
}

// Batch framing bounds. A batch frame is frameBatch followed by
// repeated [u32 length][sub-frame] entries, where every sub-frame is a
// complete frameEnvelope frame (kind byte included). Control frames are
// never batched — they ride the priority lane — and batches never nest.
const (
	// maxBatchFrames bounds the entries one batch may carry.
	maxBatchFrames = 4096
	// maxBatchFrameLen bounds one sub-frame's length (matches the message
	// reader's field cap).
	maxBatchFrameLen = 16 << 20
)

// appendBatch appends the batch wire form of frames to dst: the
// frameBatch kind byte, then each frame length-prefixed. The caller
// guarantees frames is non-empty and every entry is a frameEnvelope
// frame.
func appendBatch(dst []byte, frames [][]byte) []byte {
	dst = append(dst, frameBatch)
	for _, f := range frames {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(f)))
		dst = append(dst, f...)
	}
	return dst
}

// batchWireSize returns the exact length appendBatch would produce.
func batchWireSize(frames [][]byte) int {
	n := 1
	for _, f := range frames {
		n += 4 + len(f)
	}
	return n
}

// parseBatch splits a batch frame body (after the kind byte) into its
// sub-frames, reusing frames' storage (a receive loop passes the slice
// it got back last time). It is strict: at least one entry, every entry a non-empty
// frameEnvelope frame within the length cap, no trailing bytes, no
// nested batches — so a truncated, oversized or interleaved frame is
// rejected as a whole rather than partially applied.
func parseBatch(frames [][]byte, b []byte) ([][]byte, error) {
	if len(b) == 0 {
		return nil, errors.New("broker: empty batch frame")
	}
	frames = frames[:0]
	for len(b) > 0 {
		if len(frames) >= maxBatchFrames {
			return nil, fmt.Errorf("broker: batch exceeds %d frames", maxBatchFrames)
		}
		if len(b) < 4 {
			return nil, errors.New("broker: truncated batch length prefix")
		}
		n := binary.BigEndian.Uint32(b[:4])
		b = b[4:]
		if n == 0 {
			return nil, errors.New("broker: empty batch sub-frame")
		}
		if n > maxBatchFrameLen {
			return nil, fmt.Errorf("broker: batch sub-frame length %d exceeds %d", n, maxBatchFrameLen)
		}
		if int(n) > len(b) {
			return nil, errors.New("broker: truncated batch sub-frame")
		}
		f := b[:n]
		b = b[n:]
		if f[0] != frameEnvelope {
			return nil, fmt.Errorf("broker: batch sub-frame kind %d (only envelopes batch)", f[0])
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// Control message kinds.
type ctrlKind uint8

const (
	// ctrlHello opens a connection, identifying the peer.
	ctrlHello ctrlKind = iota + 1
	// ctrlSub registers interest in a topic.
	ctrlSub
	// ctrlUnsub withdraws interest.
	ctrlUnsub
	// ctrlAck acknowledges a Sub/Unsub by ID (client connections only).
	ctrlAck
	// ctrlDeny rejects a Sub by ID with a reason.
	ctrlDeny
	// ctrlBye announces orderly shutdown.
	ctrlBye
	// ctrlDisconnect is a broker→client notice that the broker is about
	// to terminate the connection, carrying a typed reason (§5.2 / §3.3
	// of PROTOCOL.md). The DisconnectReason code travels in the ID field;
	// Reason holds free-form detail. Best effort: a peer whose pipe is
	// already full may never read it, but a quarantined reconnect always
	// receives one as the first (and only) frame of the new connection.
	ctrlDisconnect
	// ctrlReplay asks the broker to serve a subscribed durable topic
	// from the log: ID correlates the ack/deny, Cursor is the highest
	// offset the subscriber has already processed (0 for everything
	// retained). PROTOCOL.md §3.8.
	ctrlReplay
	// ctrlAckCur advances a replay subscription's ack cursor: Cursor is
	// the highest contiguously processed offset. Fire-and-forget.
	ctrlAckCur
)

// DisconnectReason is the typed cause carried by a DISCONNECT control
// frame. The numeric values are wire format (PROTOCOL.md §3.3) — do not
// reorder.
type DisconnectReason uint64

const (
	// ReasonNone means the connection dropped without a broker-announced
	// cause (network failure, orderly BYE, broker shutdown).
	ReasonNone DisconnectReason = 0
	// ReasonDoS: the peer's decaying violation score crossed the limit
	// ("the broker will terminate communications with such an entity",
	// §5.2).
	ReasonDoS DisconnectReason = 1
	// ReasonSlowConsumer: the peer's egress queue stayed saturated past
	// the slow-consumer deadline and the broker shed then evicted it.
	ReasonSlowConsumer DisconnectReason = 2
	// ReasonQuarantined: the peer's principal is temporarily banned;
	// reconnects are refused until the quarantine lapses.
	ReasonQuarantined DisconnectReason = 3
)

// String names the reason for logs and metrics labels.
func (r DisconnectReason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonDoS:
		return "dos"
	case ReasonSlowConsumer:
		return "slow-consumer"
	case ReasonQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("reason-%d", uint64(r))
	}
}

// Evicted reports whether the reason represents a deliberate broker
// eviction — the cases where a reconnecting client should back off hard
// instead of hot-looping against a broker that just threw it out.
func (r DisconnectReason) Evicted() bool {
	return r == ReasonDoS || r == ReasonSlowConsumer || r == ReasonQuarantined
}

// control is the parsed form of a control frame.
type control struct {
	Kind ctrlKind
	// Hello fields.
	IsBroker bool
	Name     string
	// Sub/Unsub/Ack/Deny fields.
	ID     uint64
	Topic  string
	Reason string
	// Replay/AckCur field: a durable-log offset. Marshaled only for
	// those kinds, so older control frames keep their exact wire form.
	Cursor uint64
}

// hasCursor reports whether kind carries the trailing Cursor field.
func (k ctrlKind) hasCursor() bool { return k == ctrlReplay || k == ctrlAckCur }

// marshalControl encodes a control frame body (without the frame kind
// byte).
func marshalControl(c *control) []byte {
	var w wire.Writer
	w.U8(uint8(c.Kind))
	w.Bool(c.IsBroker)
	w.Str(c.Name)
	w.U64(c.ID)
	w.Str(c.Topic)
	w.Str(c.Reason)
	if c.Kind.hasCursor() {
		w.U64(c.Cursor)
	}
	return w.Buf
}

// parseControl decodes a control frame body.
func parseControl(b []byte) (*control, error) {
	r := wire.NewReader(b, wire.MaxSmallField)
	c := &control{}
	c.Kind = ctrlKind(r.U8())
	c.IsBroker = r.Bool()
	c.Name = r.Str()
	c.ID = r.U64()
	c.Topic = r.Str()
	c.Reason = r.Str()
	if c.Kind.hasCursor() {
		c.Cursor = r.U64()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("broker: control frame: %w", err)
	}
	if c.Kind < ctrlHello || c.Kind > ctrlAckCur {
		return nil, fmt.Errorf("broker: unknown control kind %d", c.Kind)
	}
	return c, nil
}
