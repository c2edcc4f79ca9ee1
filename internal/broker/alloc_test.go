package broker

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// The allocation budget of the forwarding hop, pinned so that a change
// which makes a hop rebuild what its received bytes already hold fails
// go test ./... instead of surfacing later as lost throughput.

// skipUnderRace skips an allocation count in a race-detector build, whose
// sync.Pool drops pooled items at random.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not meaningful under the race detector")
			}
		}
	}
}

// TestLinkBatchForwardAllocs drives one 64-envelope frameBatch from a
// link peer through the pipeline to another link peer and counts the
// allocations per envelope: its decoded Envelope and the forward frame
// spliced from its bytes, plus the Span and its hop list when it carries
// one. Topic, source and hop names come from the link's decoder, the
// dedupe probe and the clock readings allocate nothing, and the batch's
// own bookkeeping is reused across frames. A flight recorder at its
// default 1-in-N sampling records some of the envelopes and adds no
// allocation to any of them.
func TestLinkBatchForwardAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, tc := range []struct {
		name   string
		span   bool
		flight bool
		budget float64
	}{{"plain", false, false, 2}, {"spanned", true, false, 4}, {"flight-sampled", false, true, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Name: "alloc-hop"}
			if tc.flight {
				cfg.Flight = obs.NewFlightRecorder("alloc-hop", obs.DefaultFlightEvents, obs.DefaultFlightSample)
			}
			b := New(cfg)
			defer b.Close()
			tp := topic.MustParse("/alloc/hop")
			in := addQuietPeer(b, &scriptConn{}, "upstream", true)
			in.dec = message.NewDecoder()
			out := addQuietPeer(b, &scriptConn{}, "downstream", true, tp)

			const n = 64
			frames := make([][]byte, n)
			for i := range frames {
				env := message.New(message.TypeData, tp, "alloc-src", []byte("payload"))
				if tc.span {
					env.StartSpan()
					env.AddHop("alloc-src", time.Unix(0, 1))
					env.AddHop("upstream", time.Unix(0, 2))
				}
				frames[i] = append([]byte{frameEnvelope}, env.Marshal()...)
			}
			batch := appendBatch(nil, frames)
			// Every run replays the same IDs; a window smaller than one batch
			// has forgotten them all by the next run, so each is a first
			// sighting.
			b.seen = newSeenSet(n / 2)

			run := func() {
				frames, err := parseBatch(in.frames, batch[1:])
				if err != nil {
					t.Fatal(err)
				}
				group := in.batch[:0]
				for _, f := range frames {
					group = append(group, inbound{wire: f[1:]})
				}
				in.frames = frames
				b.publishFrom(in, group)
				out.out.mu.Lock()
				clear(out.out.data)
				out.out.data, out.out.dataHead = out.out.data[:0], 0
				out.out.mu.Unlock()
			}
			run() // warm the decoder, the working sets and the pools
			if s := b.Snapshot().Counters; s["broker_forwarded_total"] != n || s["broker_duplicates_total"] != 0 {
				t.Fatalf("warm-up forwarded %d (%d duplicates), want %d", s["broker_forwarded_total"], s["broker_duplicates_total"], n)
			}
			perEnvelope := testing.AllocsPerRun(50, run) / n
			t.Logf("%.2f allocations per forwarded envelope", perEnvelope)
			if tc.flight && cfg.Flight.Head() == 0 {
				t.Fatal("the flight recorder sampled none of the forwarded envelopes")
			}
			if perEnvelope > tc.budget {
				t.Fatalf("forwarding costs %.2f allocations per envelope, budget %.0f", perEnvelope, tc.budget)
			}
		})
	}
}

// bareDeliveryAllocBudget bounds the allocations of one delivery
// through a bare broker, counted across the whole process: publisher
// (envelope, frame, in-process transport copy), broker (decoded
// envelope, forward frame, transport copy) and subscriber (decoded
// envelope).
const bareDeliveryAllocBudget = 8

// TestBareBrokerDeliveryAllocs publishes from one client to one exact
// subscriber through a broker without a guard — what the benchmark's
// broker.route_allocs_per_delivery measures — and holds the process-wide
// allocation count per delivery to the budget.
func TestBareBrokerDeliveryAllocs(t *testing.T) {
	skipUnderRace(t)
	tr := transport.NewInproc()
	_, addr := newTestBroker(t, tr, Config{Name: "alloc-bare", EgressQueue: 16384})
	tp := topic.MustParse("/alloc/bare")
	sub, err := Connect(tr, addr, "alloc-sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var got atomic.Int64
	if err := sub.Subscribe(tp, func(*message.Envelope) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	pub, err := Connect(tr, addr, "alloc-pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	payload := make([]byte, 96)
	round := func(total int) {
		t.Helper()
		got.Store(0)
		deadline := time.Now().Add(10 * time.Second)
		// await keeps at most behind deliveries outstanding.
		await := func(published, behind int) {
			for int64(published-behind) > got.Load() {
				if time.Now().After(deadline) {
					t.Fatalf("delivered %d of %d", got.Load(), published)
				}
				runtime.Gosched()
			}
		}
		for i := 1; i <= total; i++ {
			if err := pub.Publish(message.New(message.TypeData, tp, ident.EntityID("alloc-pub"), payload)); err != nil {
				t.Fatal(err)
			}
			await(i, 1024)
		}
		await(total, 0)
	}
	round(2000) // warm-up
	const total = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round(total)
	runtime.ReadMemStats(&after)
	perDelivery := float64(after.Mallocs-before.Mallocs) / total
	t.Logf("%.2f allocations per delivery", perDelivery)
	if perDelivery > bareDeliveryAllocBudget {
		t.Fatalf("a bare delivery costs %.2f allocations, budget %d", perDelivery, bareDeliveryAllocBudget)
	}
}

// ackCurAllocs is the allocation count of one ACK-CUR control frame
// encoded and decoded: a tracker acks every durable record with one, so
// the round trip sits on the durable delivery path.
const ackCurAllocs = 6

// TestAckCurControlAllocs pins the allocations of one ACK-CUR
// marshalControl + parseControl round trip.
func TestAckCurControlAllocs(t *testing.T) {
	skipUnderRace(t)
	ack := &control{Kind: ctrlAckCur, Topic: "/Availability/Traces/svc-1", Cursor: 1 << 40}
	var sink *control
	allocs := testing.AllocsPerRun(1000, func() {
		c, err := parseControl(marshalControl(ack))
		if err != nil {
			t.Fatal(err)
		}
		sink = c
	})
	if sink.Cursor != ack.Cursor {
		t.Fatalf("cursor %d, want %d", sink.Cursor, ack.Cursor)
	}
	if allocs != ackCurAllocs {
		t.Fatalf("ACK-CUR round trip costs %v allocations, want %d", allocs, ackCurAllocs)
	}
}
