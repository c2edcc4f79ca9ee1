package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Inproc is the in-process transport: connections are paired channel
// queues inside one address space. It is used for laptop-scale
// experiments and deterministic tests where socket overhead would only
// add noise. Each Inproc value is an isolated address namespace.
type Inproc struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
	nextAuto  atomic.Uint64
}

// NewInproc returns an empty in-process namespace.
func NewInproc() *Inproc {
	return &Inproc{listeners: make(map[string]*inprocListener)}
}

// Name implements Transport.
func (*Inproc) Name() string { return "inproc" }

// Listen implements Transport. The empty address allocates a fresh one.
func (ip *Inproc) Listen(addr string) (Listener, error) {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	if addr == "" || addr == ":0" {
		addr = fmt.Sprintf("inproc-%d", ip.nextAuto.Add(1))
	}
	if _, exists := ip.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: inproc address %q already bound", addr)
	}
	l := &inprocListener{
		ip:      ip,
		addr:    addr,
		accepts: make(chan Conn, 64),
		done:    make(chan struct{}),
	}
	ip.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (ip *Inproc) Dial(addr string) (Conn, error) {
	ip.mu.Lock()
	l, ok := ip.listeners[addr]
	ip.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: inproc dial %q: no listener", addr)
	}
	clientSide, serverSide := newInprocPair(
		fmt.Sprintf("inproc-client-%d", ip.nextAuto.Add(1)), addr)
	select {
	case l.accepts <- serverSide:
		return clientSide, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (ip *Inproc) unbind(addr string) {
	ip.mu.Lock()
	delete(ip.listeners, addr)
	ip.mu.Unlock()
}

type inprocListener struct {
	ip      *Inproc
	addr    string
	accepts chan Conn
	done    chan struct{}
	once    sync.Once
}

func (l *inprocListener) Accept() (Conn, error) {
	// Prefer pending connections over shutdown so dialers that won the
	// race against Close are not stranded half-open.
	select {
	case c := <-l.accepts:
		return c, nil
	default:
	}
	select {
	case c := <-l.accepts:
		return c, nil
	case <-l.done:
		select {
		case c := <-l.accepts:
			return c, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.ip.unbind(l.addr)
		// Tear down connections nobody will ever accept.
		for {
			select {
			case c := <-l.accepts:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

// inprocConn is one direction-pair endpoint; send and recv channels of
// the two endpoints are crossed.
type inprocConn struct {
	send   chan []byte
	recv   chan []byte
	local  string
	remote string
	done   chan struct{}
	peer   *inprocConn
	closMu sync.Mutex
	closed bool
}

func newInprocPair(clientAddr, serverAddr string) (client, server *inprocConn) {
	a := make(chan []byte, 1024)
	b := make(chan []byte, 1024)
	client = &inprocConn{send: a, recv: b, local: clientAddr, remote: serverAddr, done: make(chan struct{})}
	server = &inprocConn{send: b, recv: a, local: serverAddr, remote: clientAddr, done: make(chan struct{})}
	client.peer = server
	server.peer = client
	return client, server
}

func (c *inprocConn) Send(frame []byte) error {
	if len(frame) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(frame))
	}
	cp := make([]byte, len(frame))
	copy(cp, frame)
	select {
	case <-c.done:
		return ErrClosed
	case <-c.peer.done:
		return ErrClosed
	case c.send <- cp:
		inprocMetrics.recordSend(1, len(cp))
		return nil
	}
}

func (c *inprocConn) Recv() ([]byte, error) {
	select {
	case f := <-c.recv:
		inprocMetrics.recordRecv(len(f))
		return f, nil
	case <-c.done:
		select {
		case f := <-c.recv:
			inprocMetrics.recordRecv(len(f))
			return f, nil
		default:
			return nil, ErrClosed
		}
	case <-c.peer.done:
		// Peer closed: drain remaining frames first.
		select {
		case f := <-c.recv:
			inprocMetrics.recordRecv(len(f))
			return f, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (c *inprocConn) Close() error {
	c.closMu.Lock()
	defer c.closMu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	return nil
}

func (c *inprocConn) LocalAddr() string  { return c.local }
func (c *inprocConn) RemoteAddr() string { return c.remote }
