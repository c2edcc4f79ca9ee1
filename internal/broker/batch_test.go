package broker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"entitytrace/internal/message"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// envFrame builds a complete frameEnvelope frame carrying an envelope
// with a payload of n filler bytes.
func envFrame(t *testing.T, n int) []byte {
	t.Helper()
	env := message.New(message.TypeData, topic.MustParse("/batch/test"), "batcher", bytes.Repeat([]byte{'p'}, n))
	f := make([]byte, 1, 1+env.WireSize())
	f[0] = frameEnvelope
	return env.AppendWire(f, env.TTL)
}

func TestBatchRoundTrip(t *testing.T) {
	frames := [][]byte{envFrame(t, 3), envFrame(t, 100), envFrame(t, 0)}
	wire := appendBatch(nil, frames)
	if len(wire) != batchWireSize(frames) {
		t.Fatalf("wire size %d, batchWireSize %d", len(wire), batchWireSize(frames))
	}
	if wire[0] != frameBatch {
		t.Fatalf("kind byte %d, want %d", wire[0], frameBatch)
	}
	got, err := parseBatch(nil, wire[1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("parsed %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestParseBatchMalformed(t *testing.T) {
	good := envFrame(t, 8)
	body := func(frames ...[]byte) []byte { return appendBatch(nil, frames)[1:] }

	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"empty body", nil, "empty batch"},
		{"short length prefix", []byte{0, 0, 1}, "truncated batch length prefix"},
		{"trailing garbage", append(body(good), 0xff, 0xff), "truncated batch length prefix"},
		{"zero-length sub-frame", []byte{0, 0, 0, 0}, "empty batch sub-frame"},
		{"oversized sub-frame length", binary.BigEndian.AppendUint32(nil, maxBatchFrameLen+1), "exceeds"},
		{"truncated sub-frame", body(good)[:4+len(good)-1], "truncated batch sub-frame"},
		{"interleaved control frame", body(good, append([]byte{frameControl}, good[1:]...)), "only envelopes batch"},
		{"nested batch", body(good, append([]byte{frameBatch}, body(good)...)), "only envelopes batch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseBatch(nil, tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("parseBatch = %v, want error containing %q", err, tc.want)
			}
		})
	}

	// Frame-count cap: one more than maxBatchFrames minimal entries.
	var big []byte
	for i := 0; i < maxBatchFrames+1; i++ {
		big = binary.BigEndian.AppendUint32(big, 1)
		big = append(big, frameEnvelope)
	}
	if _, err := parseBatch(nil, big); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("over-count batch: %v", err)
	}
}

// FuzzParseBatch hammers the batch parser with truncated, oversized, and
// interleaved frames. Invariants: no panic, and any accepted parse
// re-encodes byte-identically (the format is canonical, so a parse/
// re-encode loop cannot smuggle bytes past the router).
func FuzzParseBatch(f *testing.F) {
	env := message.New(message.TypeData, topic.MustParse("/fuzz/batch"), "fuzzer", []byte("payload"))
	frame := make([]byte, 1, 1+env.WireSize())
	frame[0] = frameEnvelope
	frame = env.AppendWire(frame, env.TTL)

	f.Add(appendBatch(nil, [][]byte{frame})[1:])
	f.Add(appendBatch(nil, [][]byte{frame, frame, frame})[1:])
	f.Add(appendBatch(nil, [][]byte{frame})[1 : 4+len(frame)/2])  // truncated sub-frame
	f.Add(binary.BigEndian.AppendUint32(nil, maxBatchFrameLen+1)) // oversized length
	f.Add([]byte{0, 0, 1})                                        // short prefix
	f.Add([]byte{0, 0, 0, 0})                                     // zero-length entry
	ctrl := append([]byte{frameControl}, frame[1:]...)
	f.Add(appendBatch(nil, [][]byte{frame, ctrl})[1:]) // interleaved control
	nested := append([]byte{frameBatch}, appendBatch(nil, [][]byte{frame})[1:]...)
	f.Add(appendBatch(nil, [][]byte{nested})[1:]) // nested batch

	f.Fuzz(func(t *testing.T, body []byte) {
		frames, err := parseBatch(nil, body)
		if err != nil {
			return
		}
		if len(frames) == 0 {
			t.Fatal("accepted batch with zero frames")
		}
		re := appendBatch(nil, frames)
		if !bytes.Equal(re[1:], body) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", body, re[1:])
		}
	})
}

// TestEgressBatchCoalescing pre-loads the queue and verifies one drain
// pass packs frames under the byte budget into a single frameBatch send,
// while a lone oversized frame still travels alone and unwrapped.
func TestEgressBatchCoalescing(t *testing.T) {
	conn := newGateConn()
	small := [][]byte{
		[]byte("frame-00"), []byte("frame-01"), []byte("frame-02"),
		[]byte("frame-03"), []byte("frame-04"),
	}
	huge := bytes.Repeat([]byte{'H'}, 256)
	// Budget fits exactly three small frames: 1 + 3*(4+8) = 37.
	e := newEgress(conn, 64, 37, 0)
	base := time.Unix(1000, 0)
	for _, fr := range small {
		e.enqueueData(fr, base)
	}
	e.enqueueData(huge, base)

	go e.run()
	for i := 0; i < 3; i++ {
		conn.gate <- struct{}{}
	}
	waitFor(t, "three coalesced sends", func() bool { return len(conn.sentFrames()) == 3 })
	sent := conn.sentFrames()

	// First send: batch of three.
	if sent[0][0] != frameBatch {
		t.Fatalf("first send kind %d, want batch", sent[0][0])
	}
	got, err := parseBatchLoose(sent[0][1:])
	if err != nil || len(got) != 3 {
		t.Fatalf("first batch: %d frames, err %v", len(got), err)
	}
	// Second send: remaining two smalls (underfull, still batched).
	if sent[1][0] != frameBatch {
		t.Fatalf("second send kind %d, want batch", sent[1][0])
	}
	if got, err = parseBatchLoose(sent[1][1:]); err != nil || len(got) != 2 {
		t.Fatalf("second batch: %d frames, err %v", len(got), err)
	}
	// Third send: the oversized frame alone, raw — a single-frame drain
	// skips the batch wrapper entirely.
	if !bytes.Equal(sent[2], huge) {
		t.Fatalf("third send = %d bytes kind %d, want raw oversized frame", len(sent[2]), sent[2][0])
	}
	e.beginClose()
}

// parseBatchLoose splits a batch body without the envelope-kind
// restriction; egress unit tests batch opaque byte strings.
func parseBatchLoose(b []byte) ([][]byte, error) {
	var frames [][]byte
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("truncated prefix")
		}
		n := binary.BigEndian.Uint32(b[:4])
		if int(n) > len(b)-4 {
			return nil, fmt.Errorf("truncated frame")
		}
		frames = append(frames, b[4:4+n])
		b = b[4+n:]
	}
	return frames, nil
}

// TestEgressBatchLingerFlushesOnLatency verifies the latency bound: an
// underfull drain holds its frames once, then flushes after batchLatency
// even if nothing else arrives.
func TestEgressBatchLingerFlushesOnLatency(t *testing.T) {
	conn := newGateConn()
	conn.gate <- struct{}{}
	e := newEgress(conn, 64, 1<<20, 30*time.Millisecond)
	// Start the writer first so it parks on the wake channel; the
	// enqueue's wake token is then consumed by the outer wait and the
	// linger timer runs its full course.
	go e.run()
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	e.enqueueData([]byte("lonely"), start)
	waitFor(t, "lingered flush", func() bool { return len(conn.sentFrames()) == 1 })
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("flushed after %v, before the linger window", elapsed)
	}
	if got := conn.sentFrames()[0]; !bytes.Equal(got, []byte("lonely")) {
		t.Fatalf("sent %q", got)
	}
	e.beginClose()
}

// TestEgressBatchControlPreemptsLinger verifies the priority lane:
// a control frame enqueued during a linger cuts the wait short and
// transmits before the lingering data.
func TestEgressBatchControlPreemptsLinger(t *testing.T) {
	conn := newGateConn()
	e := newEgress(conn, 64, 1<<20, time.Hour) // linger would block ~forever
	go e.run()
	time.Sleep(5 * time.Millisecond) // let the writer park on the wake channel
	e.enqueueData([]byte("data-frame"), time.Unix(1000, 0))
	// The writer is now lingering; a control frame preempts it.
	time.Sleep(10 * time.Millisecond)
	if !e.enqueueCtrl([]byte("ctrl-frame")) {
		t.Fatal("control enqueue refused")
	}
	conn.gate <- struct{}{}
	conn.gate <- struct{}{}
	waitFor(t, "control then data", func() bool { return len(conn.sentFrames()) == 2 })
	sent := conn.sentFrames()
	if !bytes.Equal(sent[0], []byte("ctrl-frame")) {
		t.Fatalf("first send %q, want control frame", sent[0])
	}
	if !bytes.Equal(sent[1], []byte("data-frame")) {
		t.Fatalf("second send %q, want data frame", sent[1])
	}
	e.beginClose()
}

// TestEgressBatchRespectsFrameCap verifies a drain never packs more than
// maxBatchFrames entries no matter how deep the queue is.
func TestEgressBatchRespectsFrameCap(t *testing.T) {
	conn := newGateConn()
	e := newEgress(conn, maxBatchFrames+10, 1<<30, 0)
	for i := 0; i < maxBatchFrames+5; i++ {
		e.enqueueData([]byte{byte(i)}, time.Unix(1000, 0))
	}
	e.mu.Lock()
	frames := e.popDataLocked(nil)
	rest := e.queuedData()
	e.mu.Unlock()
	if len(frames) != maxBatchFrames {
		t.Fatalf("popped %d frames, want %d", len(frames), maxBatchFrames)
	}
	if rest != 5 {
		t.Fatalf("%d frames left queued, want 5", rest)
	}
	conn.Close()
}

// TestEgressNeverBatchesDurableFrames queues plain envelope frames
// interleaved with offset-annotated replay frames behind a control
// frame. One drain sends the control frame first, then the data in queue
// order with every run of plain frames coalesced and every frameDurable
// frame on its own — a batch the strict parser would reject (and the
// client drop whole) is never built.
func TestEgressNeverBatchesDurableFrames(t *testing.T) {
	tp := topic.MustParse("/Traces/interleaved")
	plain := func(n byte) []byte {
		return append([]byte{frameEnvelope}, traceEnv(tp, n).Marshal()...)
	}
	replay := func(off uint64, n byte) []byte { return appendDurable(nil, off, plain(n)) }
	queue := [][]byte{
		plain(1), plain(2), replay(10, 3), plain(4), plain(5), plain(6),
		replay(11, 7), replay(12, 8), plain(9), replay(13, 10),
	}
	ctrl := append([]byte{frameControl}, marshalControl(&control{Kind: ctrlAck, ID: 1})...)

	for _, batchBytes := range []int{32 << 10, 0} {
		conn := newGateConn()
		e := newEgress(conn, 64, batchBytes, 0)
		for _, f := range queue {
			e.enqueueData(f, time.Unix(1000, 0))
		}
		if !e.enqueueCtrl(ctrl) {
			t.Fatal("control enqueue refused")
		}
		for range queue {
			conn.gate <- struct{}{}
		}
		conn.gate <- struct{}{}
		go e.run()
		waitFor(t, "queue drained", func() bool { return e.depth() == 0 })
		e.beginClose()
		<-conn.closed

		sent := conn.sentFrames()
		if len(sent) == 0 || !bytes.Equal(sent[0], ctrl) {
			t.Fatalf("batchBytes=%d: first frame is not the control frame", batchBytes)
		}
		// Unpack what went out, in order, and compare with the queue.
		var got [][]byte
		wantSends := 1 + len(queue)
		for _, f := range sent[1:] {
			switch f[0] {
			case frameBatch:
				if batchBytes == 0 {
					t.Fatal("unbatched egress built a batch")
				}
				sub, err := parseBatch(nil, f[1:])
				if err != nil {
					t.Fatalf("egress built a batch its own parser rejects: %v", err)
				}
				got = append(got, sub...)
			case frameDurable:
				if _, _, err := parseDurable(f[1:]); err != nil {
					t.Fatalf("durable frame damaged: %v", err)
				}
				got = append(got, f)
			default:
				got = append(got, f)
			}
		}
		if batchBytes > 0 {
			wantSends = 1 + 7 // ctrl, [1 2], 3, [4 5 6], 7, 8, 9, 10
		}
		if len(sent) != wantSends {
			t.Fatalf("batchBytes=%d: %d sends, want %d", batchBytes, len(sent), wantSends)
		}
		if len(got) != len(queue) {
			t.Fatalf("batchBytes=%d: %d data frames out, want %d", batchBytes, len(got), len(queue))
		}
		for i := range queue {
			if !bytes.Equal(got[i], queue[i]) {
				t.Fatalf("batchBytes=%d: data frame %d out of order or altered", batchBytes, i)
			}
		}
	}
}

// TestPublishBatchRoundTrip sends a kind-3 batch frame from a client
// connection — brokers accept one from any peer — through a broker with
// batching enabled on its egress and checks every envelope fans out to
// the subscriber intact and in order.
func TestPublishBatchRoundTrip(t *testing.T) {
	tr := transport.NewInproc()
	_, addr := newTestBroker(t, tr, Config{Name: "b0", BatchBytes: 8 << 10, BatchLatency: time.Millisecond})

	sub, err := Connect(tr, addr, "subscriber")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	tp := topic.MustParse("/batch/roundtrip")
	got := make(chan *message.Envelope, 64)
	if err := sub.Subscribe(tp, func(e *message.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}

	pub, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	hello := &control{Kind: ctrlHello, Name: "publisher"}
	if err := pub.Send(append([]byte{frameControl}, marshalControl(hello)...)); err != nil {
		t.Fatal(err)
	}
	const n = 20
	frames := make([][]byte, n)
	for i := range frames {
		env := message.New(message.TypeData, tp, "publisher", []byte(fmt.Sprintf("batched-%02d", i)))
		f := make([]byte, 1, 1+env.WireSize())
		f[0] = frameEnvelope
		frames[i] = env.AppendWire(f, env.TTL)
	}
	if err := pub.Send(appendBatch(nil, frames)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e := recvEnvelope(t, got, fmt.Sprintf("batched envelope %d", i))
		if want := fmt.Sprintf("batched-%02d", i); string(e.Payload) != want {
			t.Fatalf("envelope %d payload %q, want %q", i, e.Payload, want)
		}
	}
}
