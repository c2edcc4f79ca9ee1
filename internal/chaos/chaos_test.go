package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"entitytrace/internal/clock"
	"entitytrace/internal/transport"
)

// pipe sets up a wrapped inproc listener at addr plus a dialed and an
// accepted connection through the injector.
func pipe(t *testing.T, inj *Injector, addr string) (client, server transport.Conn) {
	t.Helper()
	ln, err := inj.Listen(addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan transport.Conn, 1)
	errs := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			errs <- err
			return
		}
		accepted <- c
	}()
	client, err = inj.Dial(ln.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	select {
	case server = <-accepted:
	case err := <-errs:
		t.Fatalf("accept: %v", err)
	case <-time.After(2 * time.Second):
		t.Fatal("accept timed out")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func newInjector(t *testing.T, seed int64, cfg Config) *Injector {
	t.Helper()
	cfg.Seed = seed
	inj, err := New(transport.NewInproc(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return inj
}

func TestSeedRequired(t *testing.T) {
	if _, err := New(transport.NewInproc(), Config{}); err == nil {
		t.Fatal("New accepted a zero seed")
	}
}

// TestDeterministicReplay is the acceptance-criteria test: two runs with
// the same seed produce the identical fault schedule (journal digest)
// and the identical delivered frame sequence; a different seed diverges.
func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) (delivered []string, digest uint64) {
		inj := newInjector(t, seed, Config{})
		inj.Set("loss", Loss(0.3))
		inj.Set("dup", Duplicate(0.3, 1))
		inj.Set("corrupt", Corrupt(0.2, 4))
		client, server := pipe(t, inj, fmt.Sprintf("replay-%d-%d", seed, len(delivered)))

		done := make(chan []string, 1)
		go func() {
			var got []string
			for {
				f, err := server.Recv()
				if err != nil {
					done <- got
					return
				}
				got = append(got, string(f))
			}
		}()
		for i := 0; i < 64; i++ {
			if err := client.Send([]byte(fmt.Sprintf("frame-%02d-payload", i))); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		// Inproc delivery is synchronous into the peer buffer; give the
		// reader a moment to drain, then close to stop it.
		time.Sleep(50 * time.Millisecond)
		client.Close()
		server.Close()
		select {
		case delivered = <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("reader did not finish")
		}
		return delivered, inj.JournalDigest()
	}

	gotA, digA := run(42)
	gotB, digB := run(42)
	if digA != digB {
		t.Fatalf("same seed produced different digests: %#x vs %#x", digA, digB)
	}
	if len(gotA) != len(gotB) {
		t.Fatalf("same seed delivered %d vs %d frames", len(gotA), len(gotB))
	}
	for i := range gotA {
		if gotA[i] != gotB[i] {
			t.Fatalf("frame %d diverged: %q vs %q", i, gotA[i], gotB[i])
		}
	}
	if len(gotA) == 64 {
		t.Fatal("loss fault dropped nothing across 64 frames")
	}
	_, digC := run(43)
	if digC == digA {
		t.Fatalf("different seeds produced the same digest %#x", digA)
	}
}

func TestDuplicateDeliversCopies(t *testing.T) {
	inj := newInjector(t, 7, Config{})
	inj.Set("dup", Duplicate(1.0, 2))
	client, server := pipe(t, inj, "dup")
	if err := client.Send([]byte("hello")); err != nil {
		t.Fatalf("send: %v", err)
	}
	for i := 0; i < 3; i++ {
		f, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if string(f) != "hello" {
			t.Fatalf("recv %d: got %q", i, f)
		}
	}
}

func TestReorderSwapsAdjacentFrames(t *testing.T) {
	inj := newInjector(t, 7, Config{})
	// Deterministic reorder: hold exactly the frames tagged 'A'.
	inj.Set("swap", FaultFunc(func(ev *Event, _ *rand.Rand) Verdict {
		return Verdict{Hold: len(ev.Frame) > 0 && ev.Frame[0] == 'A'}
	}))
	client, server := pipe(t, inj, "reorder")
	for _, m := range []string{"A-first", "B-second"} {
		if err := client.Send([]byte(m)); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	want := []string{"B-second", "A-first"}
	for i, w := range want {
		f, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if string(f) != w {
			t.Fatalf("recv %d: got %q want %q", i, f, w)
		}
	}
}

func TestCorruptMutatesWithoutPanic(t *testing.T) {
	inj := newInjector(t, 9, Config{})
	inj.Set("corrupt", Corrupt(1.0, 3))
	client, server := pipe(t, inj, "corrupt")
	payload := bytes.Repeat([]byte{0xAA}, 128)
	if err := client.Send(payload); err != nil {
		t.Fatalf("send: %v", err)
	}
	f, err := server.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if len(f) != len(payload) {
		t.Fatalf("corruption changed length: %d", len(f))
	}
	if bytes.Equal(f, payload) {
		t.Fatal("frame not corrupted")
	}
}

func TestAsymmetricPartition(t *testing.T) {
	inj := newInjector(t, 11, Config{})
	inj.Set("partition", When(Toward("asym"), Drop()))
	client, server := pipe(t, inj, "asym")

	// listener→dialer still flows.
	if err := server.Send([]byte("down")); err != nil {
		t.Fatalf("server send: %v", err)
	}
	f, err := client.Recv()
	if err != nil || string(f) != "down" {
		t.Fatalf("client recv: %q %v", f, err)
	}

	// dialer→listener is silently dropped.
	if err := client.Send([]byte("up")); err != nil {
		t.Fatalf("client send: %v", err)
	}
	got := make(chan []byte, 1)
	go func() {
		if f, err := server.Recv(); err == nil {
			got <- f
		}
	}()
	select {
	case f := <-got:
		t.Fatalf("partitioned direction delivered %q", f)
	case <-time.After(100 * time.Millisecond):
	}

	// Healing the partition restores the direction.
	inj.Clear("partition")
	if err := client.Send([]byte("healed")); err != nil {
		t.Fatalf("client send: %v", err)
	}
	select {
	case f := <-got:
		if string(f) != "healed" {
			t.Fatalf("post-heal frame %q", f)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("post-heal frame not delivered")
	}
}

func TestFlapClosesConnections(t *testing.T) {
	inj := newInjector(t, 13, Config{})
	client, server := pipe(t, inj, "flap")
	if n := inj.ConnCount(); n != 2 {
		t.Fatalf("conn count %d", n)
	}
	if n := inj.Flap(); n != 2 {
		t.Fatalf("flapped %d conns", n)
	}
	if _, err := client.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("client recv after flap: %v", err)
	}
	if _, err := server.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("server recv after flap: %v", err)
	}
	if n := inj.ConnCount(); n != 0 {
		t.Fatalf("conn count after flap %d", n)
	}
}

func TestTimelineOnFakeClock(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	inj := newInjector(t, 17, Config{Clock: fc})
	stop, done := inj.Play([]Step{
		{After: 10 * time.Millisecond, Name: "loss", Fault: Loss(0.5)},
		{After: 10 * time.Millisecond, Name: "loss"}, // clear
	})
	defer stop()

	waitActive := func(want int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if len(inj.Active()) == want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("active faults never reached %d (now %v)", want, inj.Active())
	}

	waitTimers := func(want int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if fc.PendingTimers() >= want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("fake clock never saw %d pending timers", want)
	}

	waitTimers(1)
	fc.Advance(10 * time.Millisecond)
	waitActive(1)
	waitTimers(1)
	fc.Advance(10 * time.Millisecond)
	waitActive(0)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timeline never finished")
	}
}

func TestBandwidthDelaysLargeFrames(t *testing.T) {
	// 1 KiB/s: a 512-byte frame costs 500ms of virtual link time.
	b := Bandwidth(1024)
	now := time.Unix(100, 0)
	ev := &Event{Conn: 1, Now: now, Frame: make([]byte, 512)}
	v := b.Apply(ev, nil)
	if v.Delay != 500*time.Millisecond {
		t.Fatalf("first frame delay %v", v.Delay)
	}
	// A second frame at the same instant queues behind the first.
	v2 := b.Apply(ev, nil)
	if v2.Delay != time.Second {
		t.Fatalf("second frame delay %v", v2.Delay)
	}
}

// TestSendAllThroughInjectorJudgesEveryFrame sends one multi-frame drain
// with transport.SendAll through an injector-wrapped TCP connection: the
// stream transport may put the frames on the wire with a single write,
// but the injector still renders one verdict per frame — here dropping
// exactly the odd-numbered ones and delaying each delivered one — as it
// does for frame-at-a-time Sends.
func TestSendAllThroughInjectorJudgesEveryFrame(t *testing.T) {
	inj, err := New(transport.NewTCP(), Config{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	inj.Set("odd", FaultFunc(func(ev *Event, _ *rand.Rand) Verdict {
		return Verdict{Drop: ev.Frame[0]%2 == 1}
	}))
	// Applied after "odd": every delivered frame waits out the latency
	// on the receive path.
	inj.Set("slow", Latency(time.Millisecond, 0))
	client, server := pipe(t, inj, "127.0.0.1:0")

	const n = 41 // ends on an even frame, so every odd one has been judged by then
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = bytes.Repeat([]byte{byte(i)}, 10+i)
	}
	if err := transport.SendAll(client, frames[:n/2]); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames[n/2:] {
		if err := client.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	for i := 0; i < n; i += 2 {
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, frames[i]) {
			t.Fatalf("got frame %d (%d bytes), want frame %d", got[0], len(got), i)
		}
	}
	if elapsed, want := time.Since(start), (n/2+1)*time.Millisecond; elapsed < want {
		t.Fatalf("%d delivered frames took %v, under their injected %v", n/2+1, elapsed, want)
	}
	drops, delays := 0, 0
	for _, d := range inj.Decisions() {
		if d.Fault == "odd" && d.Action == "drop" {
			drops++
		}
		if d.Fault == "slow" && d.Action == "delay=1ms" {
			delays++
		}
	}
	if drops != n/2 {
		t.Fatalf("%d drop verdicts journaled, want %d (one per odd frame)", drops, n/2)
	}
	if delays != n/2+1 {
		t.Fatalf("%d delay verdicts journaled, want %d (one per delivered frame)", delays, n/2+1)
	}
}
