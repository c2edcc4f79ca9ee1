package message

import (
	"fmt"
	"time"

	"entitytrace/internal/ident"
	"entitytrace/internal/obs"
	"entitytrace/internal/wire"
)

// Per-hop tracing (observability layer): an envelope may carry an
// optional span annotation recording the nodes it passed through and
// when. The annotation is appended to the wire form AFTER the signature
// and is excluded from SigningBytes — like the TTL it is mutable routing
// state, stamped by every forwarding broker, so it must not invalidate
// the publisher's signature. Envelopes without the annotation (the seed
// wire format) parse unchanged, and an absent annotation adds zero
// bytes, so the feature is wire-compatible and pay-as-you-go.

// MaxHops bounds the hop list against hostile or looping growth; AddHop
// stops recording past the bound (the TTL bounds actual forwarding far
// earlier) and counts each refused hop in span_hops_truncated_total.
const MaxHops = 32

// mSpanTruncated counts hops refused (see spanHasRoom) because the span
// was already at MaxHops — a nonzero value means flows exist whose
// tails are invisible to trace assembly.
var mSpanTruncated = obs.Default.Counter("span_hops_truncated_total")

// spanHasRoom reports whether a span recording hops hops may take one
// more, counting a refusal in span_hops_truncated_total. Every path that
// adds a hop — AddHop, AppendForward, SpliceForward — asks it.
func spanHasRoom(hops int) bool {
	if hops < MaxHops {
		return true
	}
	mSpanTruncated.Inc()
	return false
}

// spanMarker introduces the optional trailing span section.
const spanMarker = 0x01

// Hop is one node traversal: the node's name and its local clock when
// the envelope passed through.
type Hop struct {
	// Node names the traversing node (entity ID or broker name).
	Node string
	// AtNanos is the node's local Unix-nanosecond timestamp. Deltas
	// between adjacent hops measure per-hop latency (subject to clock
	// skew between nodes, §4.3's NTP bound).
	AtNanos int64
}

// Time returns the hop timestamp as a time.Time.
func (h Hop) Time() time.Time { return time.Unix(0, h.AtNanos) }

// Span identifies one traced message flow and accumulates its hops, so
// the path entity→broker→…→tracker can be reconstructed.
type Span struct {
	// TraceID correlates the flow (by default the originating
	// envelope's ID).
	TraceID ident.UUID
	// Hops is the traversal record, oldest first.
	Hops []Hop
}

// Clone deep-copies the span, with room for the one hop a node that
// clones a span to carry it on adds.
func (s *Span) Clone() *Span {
	if s == nil {
		return nil
	}
	cp := &Span{TraceID: s.TraceID}
	if len(s.Hops) > 0 {
		cp.Hops = append(make([]Hop, 0, len(s.Hops)+1), s.Hops...)
	}
	return cp
}

// HopWireSize is the number of bytes one hop stamped by node adds to a
// span trailer.
func HopWireSize(node string) int { return 4 + len(node) + 8 }

// wireSize returns the exact serialized size of the span section (0 for
// an absent span), mirroring marshal.
func (s *Span) wireSize() int {
	if s == nil {
		return 0
	}
	n := 1 + 16 + 1 // marker, trace ID, hop count
	hops := len(s.Hops)
	if hops > MaxHops {
		hops = MaxHops
	}
	for _, h := range s.Hops[:hops] {
		n += HopWireSize(h.Node)
	}
	return n
}

// marshal appends the span wire section: marker, trace ID, hop count,
// hops — and, when extra is set and the span has room, one more hop
// after the recorded ones.
func (s *Span) marshal(w *wire.Writer, extra *Hop) {
	w.U8(spanMarker)
	w.Raw(s.TraceID[:])
	n := min(len(s.Hops), MaxHops)
	if extra != nil && !spanHasRoom(n) {
		extra = nil
	}
	count := n
	if extra != nil {
		count++
	}
	w.U8(uint8(count))
	for _, h := range s.Hops[:n] {
		w.Str(h.Node)
		w.I64(h.AtNanos)
	}
	if extra != nil {
		w.Str(extra.Node)
		w.I64(extra.AtNanos)
	}
}

// unmarshalSpan parses a span section, hop names through d; the reader
// is positioned at the marker byte.
func unmarshalSpan(r *wire.Reader, d *Decoder) (*Span, error) {
	if m := r.U8(); r.Err() == nil && m != spanMarker {
		return nil, fmt.Errorf("message: unknown envelope trailer marker %d", m)
	}
	s := &Span{TraceID: r.UUID()}
	n := int(r.U8())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > MaxHops {
		return nil, fmt.Errorf("message: span hop count %d exceeds %d", n, MaxHops)
	}
	if n > 0 {
		s.Hops = make([]Hop, n)
	}
	for i := range s.Hops {
		s.Hops[i] = Hop{Node: d.name(r.View()), AtNanos: r.I64()}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return s, nil
}

// StartSpan attaches a span to the envelope (correlated by the envelope
// ID) if it does not already carry one, and returns it. Originators call
// this; forwarding nodes only stamp hops on spans that already exist.
func (e *Envelope) StartSpan() *Span {
	if e.Span == nil {
		e.Span = &Span{TraceID: e.ID}
	}
	return e.Span
}

// AddHop stamps a traversal on the envelope's span. Envelopes without a
// span are left untouched, so hop accounting costs nothing unless the
// originator opted in with StartSpan. Hops past MaxHops are refused and
// counted in span_hops_truncated_total.
func (e *Envelope) AddHop(node string, at time.Time) {
	if e.Span == nil {
		return
	}
	if !spanHasRoom(len(e.Span.Hops)) {
		return
	}
	e.Span.Hops = append(e.Span.Hops, Hop{Node: node, AtNanos: at.UnixNano()})
}

// HopLatencies returns the durations between adjacent hops (length
// len(Hops)-1). Negative deltas are possible under inter-node clock
// skew and are reported as measured.
func (s *Span) HopLatencies() []time.Duration {
	if s == nil || len(s.Hops) < 2 {
		return nil
	}
	out := make([]time.Duration, 0, len(s.Hops)-1)
	for i := 1; i < len(s.Hops); i++ {
		out = append(out, time.Duration(s.Hops[i].AtNanos-s.Hops[i-1].AtNanos))
	}
	return out
}
