package broker

import (
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// fakeBroker accepts one client connection on an in-process transport,
// swallows its hello, and hands the test the broker end of the pipe.
func fakeBroker(t *testing.T) (*Client, transport.Conn) {
	t.Helper()
	tr := transport.NewInproc()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan transport.Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			accepted <- c
		}
	}()
	cl, err := Connect(tr, l.Addr(), "drop-counter")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	var srv transport.Conn
	select {
	case srv = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	t.Cleanup(func() { srv.Close() })
	if _, err := srv.Recv(); err != nil { // hello
		t.Fatal(err)
	}
	return cl, srv
}

// syncWriter is a goroutine-safe strings.Builder for log capture.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestClientCountsDroppedFrames feeds the client one malformed frame of
// each kind and reads client_frames_dropped_total{reason}: every frame
// the receive loop cannot use is counted under its reason and warned
// about, and a good frame behind them is still delivered.
func TestClientCountsDroppedFrames(t *testing.T) {
	cl, srv := fakeBroker(t)
	var logs syncWriter
	cl.SetLogger(obs.NewLogger(&logs, slog.LevelWarn, false))

	good := append([]byte{frameEnvelope}, traceEnv(topic.MustParse("/drops"), 1).Marshal()...)
	durableInner := appendDurable(nil, 7, good)
	cases := []struct {
		drop  clientDrop
		frame []byte
	}{
		{mDropKind, []byte{}},
		{mDropKind, []byte{0x7f, 1, 2, 3}},
		{mDropControl, []byte{frameControl, 0xff}},
		{mDropEnvelope, []byte{frameEnvelope, 0xff, 0xff}},
		{mDropDurable, []byte{frameDurable, 0, 0, 1}},                                 // truncated offset
		{mDropDurable, appendDurable(nil, 9, []byte{frameEnvelope, 0xff})},            // inner envelope garbage
		{mDropBatch, appendBatch(nil, [][]byte{good, durableInner})},                  // kind 4 inside kind 3
		{mDropBatchEnvelope, appendBatch(nil, [][]byte{{frameEnvelope, 0xff}, good})}, // one bad entry, one good
	}

	delivered := make(chan *message.Envelope, 4)
	cl.OnUnhandled(func(env *message.Envelope) { delivered <- env })

	for i, tc := range cases {
		before := tc.drop.n.Value()
		if err := srv.Send(tc.frame); err != nil {
			t.Fatal(err)
		}
		waitFor(t, fmt.Sprintf("case %d: drop counted and warned as %s", i, tc.drop.reason), func() bool {
			return tc.drop.n.Value() == before+1 && strings.Contains(logs.String(), "reason="+tc.drop.reason)
		})
	}
	// The batch with one bad entry still delivered its good one.
	recvEnvelope(t, delivered, "good entry of the half-bad batch")

	if err := srv.Send(good); err != nil {
		t.Fatal(err)
	}
	recvEnvelope(t, delivered, "good frame after the malformed ones")

	// Registered at init, so the metric-name lint and /metrics see every
	// reason before the first drop.
	counters := obs.Default.Snapshot().Counters
	for _, reason := range []string{"unknown_kind", "bad_control", "bad_envelope", "bad_durable", "bad_batch", "bad_batch_envelope"} {
		if _, ok := counters[obs.WithLabel("client_frames_dropped_total", "reason", reason)]; !ok {
			t.Fatalf("counter for reason %q not registered", reason)
		}
	}
}

// TestPublishSpawnsNoGoroutines: the write deadline is one watchdog per
// client, not a goroutine, channel and timer per frame — 10k publishes
// (and as many cursor ACKs) leave the goroutine count where it started.
func TestPublishSpawnsNoGoroutines(t *testing.T) {
	tr := transport.NewTCP()
	b := New(Config{})
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.Serve(l)
	defer b.Close()
	cl, err := Connect(tr, l.Addr(), "steady")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tp := topic.MustParse("/steady")
	env := message.New(message.TypeData, tp, "steady", []byte("x"))
	// A subscribe is a full round trip: once it returns, the broker's
	// per-peer goroutines are all running and the count is steady.
	if err := cl.Subscribe(topic.MustParse("/steady-ack"), func(*message.Envelope) {}); err != nil {
		t.Fatal(err)
	}

	start := runtime.NumGoroutine()
	peak := start
	for i := 0; i < 10000; i++ {
		if err := cl.Publish(env); err != nil {
			t.Fatal(err)
		}
		if err := cl.Ack(tp, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
	}
	if end := runtime.NumGoroutine(); end > start || peak > start {
		t.Fatalf("goroutines: %d at start, peak %d, %d after 10k publishes", start, peak, end)
	}
}
