package transport

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoServer accepts connections and echoes frames until closed.
func echoServer(t *testing.T, l Listener) {
	t.Helper()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c Conn) {
				defer c.Close()
				for {
					f, err := c.Recv()
					if err != nil {
						return
					}
					if err := c.Send(f); err != nil {
						return
					}
				}
			}(c)
		}
	}()
}

// transportsUnderTest returns one instance per transport, with loopback
// listen addresses.
func transportsUnderTest() map[string]struct {
	tr   Transport
	addr string
} {
	return map[string]struct {
		tr   Transport
		addr string
	}{
		"tcp":    {NewTCP(), "127.0.0.1:0"},
		"udp":    {NewUDP(), "127.0.0.1:0"},
		"inproc": {NewInproc(), ""},
	}
}

func TestEchoAcrossTransports(t *testing.T) {
	for name, tc := range transportsUnderTest() {
		t.Run(name, func(t *testing.T) {
			l, err := tc.tr.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			echoServer(t, l)
			c, err := tc.tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < 10; i++ {
				msg := []byte(fmt.Sprintf("frame-%d", i))
				if err := c.Send(msg); err != nil {
					t.Fatal(err)
				}
				got, err := c.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatalf("echo mismatch: %q vs %q", got, msg)
				}
			}
		})
	}
}

func TestLargeFrames(t *testing.T) {
	// TCP and inproc must carry frames far larger than a datagram.
	for _, name := range []string{"tcp", "inproc"} {
		t.Run(name, func(t *testing.T) {
			tc := transportsUnderTest()[name]
			l, err := tc.tr.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			echoServer(t, l)
			c, err := tc.tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			big := make([]byte, 1<<20)
			for i := range big {
				big[i] = byte(i)
			}
			if err := c.Send(big); err != nil {
				t.Fatal(err)
			}
			got, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, big) {
				t.Fatal("large frame corrupted")
			}
		})
	}
}

func TestFrameSizeLimits(t *testing.T) {
	tcp := NewTCP()
	l, _ := tcp.Listen("127.0.0.1:0")
	defer l.Close()
	echoServer(t, l)
	c, err := tcp.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized tcp frame: err=%v", err)
	}

	udp := NewUDP()
	ul, _ := udp.Listen("127.0.0.1:0")
	defer ul.Close()
	uc, err := udp.Dial(ul.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	if err := uc.Send(make([]byte, MaxDatagram+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized udp frame: err=%v", err)
	}
}

func TestConcurrentSenders(t *testing.T) {
	for name, tc := range transportsUnderTest() {
		t.Run(name, func(t *testing.T) {
			l, err := tc.tr.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()

			const senders, perSender = 8, 50
			received := make(chan []byte, senders*perSender)
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				for i := 0; i < senders*perSender; i++ {
					f, err := c.Recv()
					if err != nil {
						return
					}
					received <- f
				}
			}()

			c, err := tc.tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < perSender; i++ {
						_ = c.Send([]byte(fmt.Sprintf("s%d-%d", s, i)))
					}
				}(s)
			}
			wg.Wait()
			// Frames must arrive whole (no interleaving corruption). UDP
			// may drop under pressure, so only demand a majority there.
			min := senders * perSender
			if name == "udp" {
				min = senders * perSender / 2
			}
			deadline := time.After(5 * time.Second)
			got := 0
			for got < min {
				select {
				case f := <-received:
					if len(f) < 4 || f[0] != 's' {
						t.Fatalf("corrupt frame %q", f)
					}
					got++
				case <-deadline:
					t.Fatalf("received %d/%d frames before timeout", got, min)
				}
			}
		})
	}
}

func TestRecvAfterCloseReturnsErrClosed(t *testing.T) {
	for name, tc := range transportsUnderTest() {
		t.Run(name, func(t *testing.T) {
			l, err := tc.tr.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				c, err := l.Accept()
				if err == nil {
					c.Close()
				}
			}()
			c, err := tc.tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			// UDP has no connection teardown signal; only check
			// stream-like transports for peer-close, and self-close for
			// all.
			c.Close()
			if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Recv after close: err=%v", err)
			}
		})
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	for name, tc := range transportsUnderTest() {
		t.Run(name, func(t *testing.T) {
			l, err := tc.tr.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := l.Accept()
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			l.Close()
			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("Accept after close: err=%v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Accept did not unblock on close")
			}
		})
	}
}

func TestUDPDemuxesPeers(t *testing.T) {
	udp := NewUDP()
	l, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type recvd struct {
		conn  Conn
		frame []byte
	}
	got := make(chan recvd, 4)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c Conn) {
				f, err := c.Recv()
				if err == nil {
					got <- recvd{c, f}
				}
			}(c)
		}
	}()

	c1, _ := udp.Dial(l.Addr())
	c2, _ := udp.Dial(l.Addr())
	defer c1.Close()
	defer c2.Close()
	if err := c1.Send([]byte("from-1")); err != nil {
		t.Fatal(err)
	}
	if err := c2.Send([]byte("from-2")); err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for i := 0; i < 2; i++ {
		select {
		case r := <-got:
			seen[r.conn.RemoteAddr()] = string(r.frame)
		case <-time.After(2 * time.Second):
			t.Fatal("timed out waiting for demuxed frames")
		}
	}
	if len(seen) != 2 {
		t.Fatalf("expected 2 peers, saw %d: %v", len(seen), seen)
	}
}

func TestInprocAddressReuseAndUnbind(t *testing.T) {
	ip := NewInproc()
	l, err := ip.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.Listen("svc"); err == nil {
		t.Fatal("double bind succeeded")
	}
	l.Close()
	l2, err := ip.Listen("svc")
	if err != nil {
		t.Fatalf("rebind after close failed: %v", err)
	}
	l2.Close()
	if _, err := ip.Dial("nowhere"); err == nil {
		t.Fatal("dialing unbound inproc address succeeded")
	}
}

func TestInprocAutoAddress(t *testing.T) {
	ip := NewInproc()
	l1, _ := ip.Listen("")
	l2, _ := ip.Listen("")
	defer l1.Close()
	defer l2.Close()
	if l1.Addr() == l2.Addr() {
		t.Fatal("auto-assigned addresses collide")
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"tcp", "udp", "inproc"} {
		tr, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if tr.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, tr.Name())
		}
	}
	_, err := New("carrier-pigeon")
	if err == nil {
		t.Fatal("unknown transport accepted")
	}
	for _, name := range []string{"tcp", "udp", "inproc"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name %s", err, name)
		}
	}
}
