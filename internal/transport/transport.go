// Package transport provides the pluggable transport layer beneath the
// broker network. The paper's scheme is transport independent (§1 item
// 2): entities and brokers exchange framed messages through the Transport
// interface, with TCP, UDP and in-process implementations, plus a
// traffic-shaping wrapper that injects latency and loss for experiments.
package transport

import (
	"errors"
	"fmt"
)

// MaxFrameSize bounds a single framed message (shared by all transports;
// UDP additionally requires frames to fit a datagram).
const MaxFrameSize = 8 << 20

// Errors common to all transports.
var (
	// ErrClosed reports use of a closed connection or listener.
	ErrClosed = errors.New("transport: closed")
	// ErrFrameTooLarge reports a frame exceeding MaxFrameSize (or the
	// datagram limit for UDP).
	ErrFrameTooLarge = errors.New("transport: frame too large")
)

// Conn is a bidirectional, message-framed connection. Send is safe for
// concurrent use; Recv must be called from a single goroutine.
type Conn interface {
	// Send transmits one frame.
	Send(frame []byte) error
	// Recv blocks until a frame arrives or the connection closes.
	Recv() ([]byte, error)
	// Close tears the connection down; pending Recv calls return
	// ErrClosed (or io.EOF mapped to ErrClosed).
	Close() error
	// LocalAddr and RemoteAddr describe the endpoints.
	LocalAddr() string
	RemoteAddr() string
}

// SendAll transmits frames in order, as successive c.Send calls would,
// and stops at the first error. A connection that can put several
// frames on the wire with one write does so; any other connection —
// datagram, in-process, or a wrapper that shapes or injects faults per
// frame — gets one Send per frame.
func SendAll(c Conn, frames [][]byte) error {
	if tc, ok := c.(*tcpConn); ok {
		return tc.sendAll(frames...)
	}
	for _, f := range frames {
		if err := c.Send(f); err != nil {
			return err
		}
	}
	return nil
}

// Pending reports whether c's next Recv returns without waiting on the
// network: a whole frame is already buffered on the receiving side. A
// partly received frame does not count. Connections that cannot tell —
// datagram, or a wrapper that shapes or injects faults per frame —
// report false. Call it only from the goroutine that calls Recv.
func Pending(c Conn) bool {
	switch c := c.(type) {
	case *tcpConn:
		return c.pending()
	case *inprocConn:
		return len(c.recv) > 0
	}
	return false
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks until a connection arrives or the listener closes.
	Accept() (Conn, error)
	// Close stops accepting; blocked Accepts return ErrClosed.
	Close() error
	// Addr is the bound address, suitable for Dial.
	Addr() string
}

// Transport creates listeners and connections.
type Transport interface {
	// Name identifies the transport ("tcp", "udp", "inproc").
	Name() string
	// Listen binds addr and returns a listener.
	Listen(addr string) (Listener, error)
	// Dial connects to addr.
	Dial(addr string) (Conn, error)
}

// New returns a fresh transport by name: "tcp", "udp" or "inproc".
func New(name string) (Transport, error) {
	switch name {
	case "tcp":
		return NewTCP(), nil
	case "udp":
		return NewUDP(), nil
	case "inproc":
		return NewInproc(), nil
	}
	return nil, fmt.Errorf("transport: unknown transport %q (have inproc, tcp, udp)", name)
}
