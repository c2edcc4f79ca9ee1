package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// scriptConn is a net.Conn that records every Write it is handed and
// serves Read from a script of chunks, one chunk (or the part of it that
// fits) per call — each chunk stands for a TCP segment boundary.
type scriptConn struct {
	net.Conn // unused methods
	mu       sync.Mutex
	writes   [][]byte
	reads    [][]byte
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (c *scriptConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.reads) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.reads[0])
	if c.reads[0] = c.reads[0][n:]; len(c.reads[0]) == 0 {
		c.reads = c.reads[1:]
	}
	return n, nil
}

func (c *scriptConn) written() (calls int, stream []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.writes), bytes.Join(c.writes, nil)
}

// golden is the wire form PROTOCOL.md §1 fixes for a frame sequence:
// u32be(len) ‖ frame, concatenated.
func golden(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = binary.BigEndian.AppendUint32(out, uint32(len(f)))
		out = append(out, f...)
	}
	return out
}

func testFrames(n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = bytes.Repeat([]byte{byte(i)}, 1+i*7%300)
	}
	return frames
}

// TestTCPOneWritePerSend pins the syscall budget and the bytes: a Send
// is one Write, a SendAll of many small frames is one Write, and what
// reaches the socket is exactly the golden stream.
func TestTCPOneWritePerSend(t *testing.T) {
	frames := testFrames(64)

	sc := &scriptConn{}
	tc := newTCPConn(sc)
	for _, f := range frames[:3] {
		if err := tc.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if calls, stream := sc.written(); calls != 3 || !bytes.Equal(stream, golden(frames[:3]...)) {
		t.Fatalf("3 Sends: %d writes, stream matches golden: %v", calls, bytes.Equal(stream, golden(frames[:3]...)))
	}
	if err := tc.Send(nil); err != nil { // an empty frame is a bare header
		t.Fatal(err)
	}
	if calls, stream := sc.written(); calls != 4 || !bytes.HasSuffix(stream, []byte{0, 0, 0, 0}) {
		t.Fatalf("empty Send: %d writes, stream tail %x", calls, stream[len(stream)-4:])
	}

	sc = &scriptConn{}
	tc = newTCPConn(sc)
	if err := SendAll(tc, frames); err != nil {
		t.Fatal(err)
	}
	if calls, stream := sc.written(); calls != 1 || !bytes.Equal(stream, golden(frames...)) {
		t.Fatalf("SendAll(%d): %d writes, stream matches golden: %v", len(frames), calls, bytes.Equal(stream, golden(frames...)))
	}
	if err := SendAll(tc, nil); err != nil {
		t.Fatal(err)
	}
	if calls, _ := sc.written(); calls != 1 {
		t.Fatalf("empty SendAll wrote: %d writes", calls)
	}
}

// TestTCPLargeFramesKeepTheStream covers the paths around the staging
// bound: a drain larger than the stage is flushed in stage-sized writes,
// and a frame too large to stage leaves vectored behind what was staged
// — the byte stream is the golden one throughout, and the stage never
// grows past its bound.
func TestTCPLargeFramesKeepTheStream(t *testing.T) {
	big := bytes.Repeat([]byte{0xB1}, sendStageMax+1)
	nearly := bytes.Repeat([]byte{0xA7}, sendStageMax-frameHdrLen) // fills the stage exactly
	small := []byte("small")
	frames := [][]byte{small, big, small, nearly, small, small, big}

	sc := &scriptConn{}
	tc := newTCPConn(sc)
	if err := SendAll(tc, frames); err != nil {
		t.Fatal(err)
	}
	if _, stream := sc.written(); !bytes.Equal(stream, golden(frames...)) {
		t.Fatal("stream differs from golden")
	}
	sc.mu.Lock()
	for i, w := range sc.writes {
		if len(w) > sendStageMax && !bytes.Equal(w, big) {
			t.Fatalf("write %d is %d bytes: staged past sendStageMax", i, len(w))
		}
	}
	sc.mu.Unlock()

	many := testFrames(2000) // ~300 KB of small frames
	sc = &scriptConn{}
	tc = newTCPConn(sc)
	if err := SendAll(tc, many); err != nil {
		t.Fatal(err)
	}
	calls, stream := sc.written()
	if !bytes.Equal(stream, golden(many...)) {
		t.Fatal("stream differs from golden")
	}
	if want := len(stream)/sendStageMax + 1; calls > want+1 {
		t.Fatalf("%d bytes left in %d writes, want about %d", len(stream), calls, want)
	}
}

// TestTCPOversizeRejectedBeforeAnyByte: a frame over MaxFrameSize fails
// the whole call, and nothing — not even the frames ahead of it — has
// been written, so the stream is still frame-aligned.
func TestTCPOversizeRejectedBeforeAnyByte(t *testing.T) {
	oversize := make([]byte, MaxFrameSize+1)
	sc := &scriptConn{}
	tc := newTCPConn(sc)
	if err := tc.Send(oversize); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Send: %v", err)
	}
	if err := SendAll(tc, [][]byte{[]byte("ok"), oversize, []byte("ok")}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("SendAll: %v", err)
	}
	if calls, _ := sc.written(); calls != 0 {
		t.Fatalf("%d writes reached the socket", calls)
	}
}

// TestTCPRecvAcrossSegmentBoundaries feeds the reader one golden stream
// cut three ways: whole in one segment, a body split across reads, and
// the 4-byte header itself split.
func TestTCPRecvAcrossSegmentBoundaries(t *testing.T) {
	frames := append(testFrames(20), nil, bytes.Repeat([]byte{0xEE}, recvBufSize+123))
	stream := golden(frames...)
	cuts := map[string][][]byte{
		"one segment":    {stream},
		"body split":     {stream[:frameHdrLen+1], stream[frameHdrLen+1 : 30], stream[30:]},
		"header split":   {stream[:2], stream[2:3], stream[3:]},
		"byte at a time": nil,
	}
	for i := range stream[:200] {
		cuts["byte at a time"] = append(cuts["byte at a time"], stream[i:i+1])
	}
	cuts["byte at a time"] = append(cuts["byte at a time"], stream[200:])

	for name, chunks := range cuts {
		script := make([][]byte, len(chunks))
		for i, c := range chunks {
			script[i] = append([]byte(nil), c...)
		}
		tc := newTCPConn(&scriptConn{reads: script})
		for i, want := range frames {
			got, err := tc.Recv()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: frame %d: got %d bytes, want %d", name, i, len(got), len(want))
			}
		}
		if _, err := tc.Recv(); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: after the stream: %v", name, err)
		}
	}

	// A stream that ends inside a frame is a closed connection, not a
	// short frame.
	tc := newTCPConn(&scriptConn{reads: [][]byte{golden([]byte("cut short"))[:7]}})
	if f, err := tc.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("truncated stream: frame %q err %v", f, err)
	}
}

// TestPending: a connection reports a frame pending only when the next
// Recv needs nothing from the network — a whole frame in the TCP read
// buffer or a queued in-process frame — and a wrapper never does, since
// it may shape or drop what the wrapped connection holds.
func TestPending(t *testing.T) {
	a, b, c := []byte("first"), []byte("second"), []byte("third, cut by a segment boundary")
	stream := golden(a, b, c)
	cut := len(golden(a, b)) + frameHdrLen + 2 // c's header and two body bytes
	tc := newTCPConn(&scriptConn{reads: [][]byte{stream[:cut], stream[cut:]}})
	if Pending(tc) {
		t.Fatal("pending before anything was read")
	}
	for i, want := range []struct {
		frame   []byte
		pending bool
	}{{a, true}, {b, false}, {c, false}} {
		got, err := tc.Recv()
		if err != nil || !bytes.Equal(got, want.frame) {
			t.Fatalf("frame %d: %q, %v", i, got, err)
		}
		if p := Pending(tc); p != want.pending {
			t.Fatalf("after frame %d: pending = %v, want %v (%d bytes buffered)", i, p, want.pending, tc.br.Buffered())
		}
	}

	// Half a header buffered is not a frame either.
	tc = newTCPConn(&scriptConn{reads: [][]byte{append(golden(a), 0, 0)}})
	if _, err := tc.Recv(); err != nil {
		t.Fatal(err)
	}
	if Pending(tc) {
		t.Fatal("pending with half a header buffered")
	}

	// A wrapper holding a whole buffered frame still reports false.
	tc = newTCPConn(&scriptConn{reads: [][]byte{golden(a, b)}})
	if _, err := tc.Recv(); err != nil || !Pending(tc) {
		t.Fatalf("whole frame buffered: pending = %v, err %v", Pending(tc), err)
	}
	if Pending(struct{ Conn }{tc}) {
		t.Fatal("wrapper conn reported pending")
	}

	ip := NewInproc()
	l, err := ip.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := ip.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if Pending(client) {
		t.Fatal("inproc: pending with nothing queued")
	}
	if err := server.Send(a); err != nil {
		t.Fatal(err)
	}
	if !Pending(client) {
		t.Fatal("inproc: queued frame not pending")
	}
	if _, err := client.Recv(); err != nil || Pending(client) {
		t.Fatalf("inproc: after Recv pending = %v, err %v", Pending(client), err)
	}
}

// TestTCPConcurrentSendersNeverInterleave runs Send and SendAll callers
// against one loopback connection: every received frame is whole (one
// byte value throughout, the length its sender chose) and each sender's
// frames arrive in the order it sent them.
func TestTCPConcurrentSendersNeverInterleave(t *testing.T) {
	tr := NewTCP()
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	client, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var server Conn
	select {
	case server = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	if server == nil {
		t.Fatal("accept failed")
	}
	defer server.Close()

	const senders, perSender = 6, 300
	// Frame: [sender][seq u16] then filler of the sender's byte; sizes
	// straddle the staging bound so all three write paths mix.
	mk := func(s, seq int) []byte {
		size := 3 + (seq*131)%900
		if seq%97 == 0 {
			size = sendStageMax + seq
		}
		f := bytes.Repeat([]byte{byte(s)}, size)
		binary.BigEndian.PutUint16(f[1:3], uint16(seq))
		return f
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for seq := 0; seq < perSender; {
				if s%2 == 0 {
					if err := client.Send(mk(s, seq)); err != nil {
						t.Errorf("sender %d: %v", s, err)
						return
					}
					seq++
					continue
				}
				n := 1 + seq%7
				if seq+n > perSender {
					n = perSender - seq
				}
				batch := make([][]byte, n)
				for i := range batch {
					batch[i] = mk(s, seq+i)
				}
				if err := SendAll(client, batch); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
				seq += n
			}
		}(s)
	}

	next := make([]int, senders)
	for got := 0; got < senders*perSender; got++ {
		f, err := server.Recv()
		if err != nil {
			t.Fatalf("after %d frames: %v", got, err)
		}
		s, seq := int(f[0]), int(binary.BigEndian.Uint16(f[1:3]))
		if s >= senders || seq != next[s] {
			t.Fatalf("frame %d: sender %d seq %d, want seq %d", got, s, seq, next[s])
		}
		if want := mk(s, seq); !bytes.Equal(f, want) {
			t.Fatalf("sender %d seq %d: frame torn (%d bytes, want %d)", s, seq, len(f), len(want))
		}
		next[s]++
	}
	wg.Wait()
}

// TestSendAllFallsBackToSendPerFrame: any connection that is not the
// stream transport's own gets exactly one Send per frame, in order, and
// SendAll stops at the first error.
func TestSendAllFallsBackToSendPerFrame(t *testing.T) {
	for name, tt := range transportsUnderTest() {
		l, err := tt.tr.Listen(tt.addr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		echoServer(t, l)
		c, err := tt.tr.Dial(l.Addr())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		frames := testFrames(12)
		if err := SendAll(c, frames); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, want := range frames {
			got, err := c.Recv()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: echo %d: %d bytes, err %v", name, i, len(got), err)
			}
		}
		c.Close()
		l.Close()
	}

	rec := &recordConn{failAt: 2}
	err := SendAll(rec, [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")})
	if !errors.Is(err, ErrClosed) || len(rec.sent) != 2 {
		t.Fatalf("SendAll over a failing conn: err %v after %d sends", err, len(rec.sent))
	}
}

// recordConn records Sends and fails the one at index failAt.
type recordConn struct {
	Conn
	sent   [][]byte
	failAt int
}

func (c *recordConn) Send(f []byte) error {
	if len(c.sent) == c.failAt {
		return ErrClosed
	}
	c.sent = append(c.sent, f)
	return nil
}
