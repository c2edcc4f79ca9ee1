package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// MaxDatagram bounds a UDP frame; one frame maps to one datagram, as in
// the paper's UDP benchmarks.
const MaxDatagram = 60 * 1024

// UDP is the datagram transport. The listener demultiplexes inbound
// datagrams by source address into per-peer logical connections, giving
// UDP the same Conn/Listener surface as TCP.
type UDP struct{}

// NewUDP returns the UDP transport.
func NewUDP() *UDP { return &UDP{} }

// Name implements Transport.
func (*UDP) Name() string { return "udp" }

// Listen implements Transport.
func (*UDP) Listen(addr string) (Listener, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: udp listen %s: %w", addr, err)
	}
	ul := &udpListener{
		pc:      pc,
		conns:   make(map[string]*udpServerConn),
		accepts: make(chan *udpServerConn, 64),
		done:    make(chan struct{}),
	}
	go ul.pump()
	return ul, nil
}

// Dial implements Transport.
func (*UDP) Dial(addr string) (Conn, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: udp resolve %s: %w", addr, err)
	}
	c, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("transport: udp dial %s: %w", addr, err)
	}
	return &udpClientConn{c: c}, nil
}

type udpListener struct {
	pc      net.PacketConn
	mu      sync.Mutex
	conns   map[string]*udpServerConn
	accepts chan *udpServerConn
	done    chan struct{}
	closed  bool
}

// pump reads datagrams and routes them to per-peer connections; unknown
// peers create new connections delivered to Accept.
func (ul *udpListener) pump() {
	buf := make([]byte, MaxDatagram)
	for {
		n, addr, err := ul.pc.ReadFrom(buf)
		if err != nil {
			ul.mu.Lock()
			for _, c := range ul.conns {
				c.closeLocked()
			}
			ul.conns = map[string]*udpServerConn{}
			ul.mu.Unlock()
			close(ul.done)
			return
		}
		frame := make([]byte, n)
		copy(frame, buf[:n])
		key := addr.String()
		ul.mu.Lock()
		c, ok := ul.conns[key]
		if !ok {
			c = &udpServerConn{
				ul:    ul,
				peer:  addr,
				inbox: make(chan []byte, 1024),
				done:  make(chan struct{}),
			}
			ul.conns[key] = c
			select {
			case ul.accepts <- c:
			default:
				// Accept backlog full: drop the implicit connection, as a
				// UDP listener under SYN-flood-like pressure would.
				delete(ul.conns, key)
				c = nil
			}
		}
		ul.mu.Unlock()
		if c == nil {
			continue
		}
		select {
		case c.inbox <- frame:
		default:
			// Receiver not draining; UDP drops.
		}
	}
}

func (ul *udpListener) Accept() (Conn, error) {
	select {
	case c := <-ul.accepts:
		return c, nil
	case <-ul.done:
		return nil, ErrClosed
	}
}

func (ul *udpListener) Close() error {
	ul.mu.Lock()
	if ul.closed {
		ul.mu.Unlock()
		return nil
	}
	ul.closed = true
	ul.mu.Unlock()
	return ul.pc.Close()
}

func (ul *udpListener) Addr() string { return ul.pc.LocalAddr().String() }

func (ul *udpListener) drop(peer string) {
	ul.mu.Lock()
	delete(ul.conns, peer)
	ul.mu.Unlock()
}

// udpServerConn is a listener-side logical connection to one peer.
type udpServerConn struct {
	ul     *udpListener
	peer   net.Addr
	inbox  chan []byte
	done   chan struct{}
	closMu sync.Mutex
	closed bool
}

func (c *udpServerConn) Send(frame []byte) error {
	if len(frame) > MaxDatagram {
		return fmt.Errorf("%w: %d bytes (udp datagram limit %d)", ErrFrameTooLarge, len(frame), MaxDatagram)
	}
	c.closMu.Lock()
	closed := c.closed
	c.closMu.Unlock()
	if closed {
		return ErrClosed
	}
	_, err := c.ul.pc.WriteTo(frame, c.peer)
	if err == nil {
		udpMetrics.recordSend(1, len(frame))
	}
	return mapNetErr(err)
}

func (c *udpServerConn) Recv() ([]byte, error) {
	select {
	case f := <-c.inbox:
		udpMetrics.recordRecv(len(f))
		return f, nil
	case <-c.done:
		// Drain anything buffered before reporting closure.
		select {
		case f := <-c.inbox:
			udpMetrics.recordRecv(len(f))
			return f, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (c *udpServerConn) Close() error {
	c.closMu.Lock()
	defer c.closMu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.done)
		c.ul.drop(c.peer.String())
	}
	return nil
}

// closeLocked is called by the listener pump with its own synchronization.
func (c *udpServerConn) closeLocked() {
	c.closMu.Lock()
	defer c.closMu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
}

func (c *udpServerConn) LocalAddr() string  { return c.ul.pc.LocalAddr().String() }
func (c *udpServerConn) RemoteAddr() string { return c.peer.String() }

// udpClientConn is a dialed, connected UDP socket.
type udpClientConn struct {
	c      *net.UDPConn
	sendMu sync.Mutex
}

func (c *udpClientConn) Send(frame []byte) error {
	if len(frame) > MaxDatagram {
		return fmt.Errorf("%w: %d bytes (udp datagram limit %d)", ErrFrameTooLarge, len(frame), MaxDatagram)
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	_, err := c.c.Write(frame)
	if err == nil {
		udpMetrics.recordSend(1, len(frame))
	}
	return mapNetErr(err)
}

func (c *udpClientConn) Recv() ([]byte, error) {
	buf := make([]byte, MaxDatagram)
	n, err := c.c.Read(buf)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) {
			return nil, mapNetErr(err)
		}
		return nil, mapNetErr(err)
	}
	udpMetrics.recordRecv(n)
	return buf[:n], nil
}

func (c *udpClientConn) Close() error       { return c.c.Close() }
func (c *udpClientConn) LocalAddr() string  { return c.c.LocalAddr().String() }
func (c *udpClientConn) RemoteAddr() string { return c.c.RemoteAddr().String() }
