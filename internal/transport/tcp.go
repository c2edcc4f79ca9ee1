package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// TCP is the stream transport: frames are sent as a 4-byte big-endian
// length prefix followed by the frame body.
type TCP struct{}

// NewTCP returns the TCP transport.
func NewTCP() *TCP { return &TCP{} }

// Name implements Transport.
func (*TCP) Name() string { return "tcp" }

// Listen implements Transport.
func (*TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: tcp listen %s: %w", addr, err)
	}
	return &tcpListener{l: l}, nil
}

// Dial implements Transport.
func (*TCP) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: tcp dial %s: %w", addr, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		// Trace messages are small and latency-sensitive; never batch.
		_ = tc.SetNoDelay(true)
	}
	return newTCPConn(c), nil
}

type tcpListener struct {
	l net.Listener
}

func (tl *tcpListener) Accept() (Conn, error) {
	c, err := tl.l.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return newTCPConn(c), nil
}

func (tl *tcpListener) Close() error { return tl.l.Close() }
func (tl *tcpListener) Addr() string { return tl.l.Addr().String() }

// Framing I/O sizes. A stream carries frames back to back: several may
// share one segment and one may straddle many, so the reader never
// assumes a read returns exactly one frame.
const (
	frameHdrLen = 4
	// recvBufSize is the per-connection read buffer: a burst of queued
	// frames is taken from the socket with one read. Every connection
	// holds one for life, so it is sized for a burst, not for the
	// largest frame (a body larger than the buffer is read directly).
	recvBufSize = 16 << 10
	// sendStageMax bounds the per-connection staging buffer in which
	// headers and small frames are joined so they leave with one write.
	// A frame too large to stage goes out vectored, uncopied.
	sendStageMax = 64 << 10
)

type tcpConn struct {
	c       net.Conn
	br      *bufio.Reader
	recvHdr [frameHdrLen]byte

	sendMu sync.Mutex
	stage  []byte // guarded by sendMu; never longer than sendStageMax
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, br: bufio.NewReaderSize(c, recvBufSize)}
}

func (tc *tcpConn) Send(frame []byte) error { return tc.sendAll(frame) }

// sendAll writes frames back to back under one hold of the send lock:
// the byte stream equals that of successive Sends, and the socket sees
// one write per sendStageMax of small frames. A frame over the size
// limit fails the call before any byte is written.
func (tc *tcpConn) sendAll(frames ...[]byte) error {
	total := 0
	for _, f := range frames {
		if len(f) > MaxFrameSize {
			return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(f))
		}
		total += frameHdrLen + len(f)
	}
	tc.sendMu.Lock()
	defer tc.sendMu.Unlock()
	buf := tc.stage[:0]
	defer func() { tc.stage = buf[:0] }()
	for _, f := range frames {
		if len(buf) > 0 && len(buf)+frameHdrLen+len(f) > sendStageMax {
			if _, err := tc.c.Write(buf); err != nil {
				return mapNetErr(err)
			}
			buf = buf[:0]
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(f)))
		if frameHdrLen+len(f) <= sendStageMax {
			buf = append(buf, f...)
			continue
		}
		// Too large to stage: header and body leave in one vectored
		// write, the body uncopied.
		vec := net.Buffers{buf, f}
		if _, err := vec.WriteTo(tc.c); err != nil {
			return mapNetErr(err)
		}
		buf = buf[:0]
	}
	if len(buf) > 0 {
		if _, err := tc.c.Write(buf); err != nil {
			return mapNetErr(err)
		}
	}
	tcpMetrics.recordSend(len(frames), total)
	return nil
}

func (tc *tcpConn) Recv() ([]byte, error) {
	if _, err := io.ReadFull(tc.br, tc.recvHdr[:]); err != nil {
		return nil, mapNetErr(err)
	}
	n := binary.BigEndian.Uint32(tc.recvHdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	// A fresh body per frame: decoders alias it.
	frame := make([]byte, n)
	if _, err := io.ReadFull(tc.br, frame); err != nil {
		return nil, mapNetErr(err)
	}
	tcpMetrics.recordRecv(len(frame) + frameHdrLen)
	return frame, nil
}

// pending reports whether a whole frame, header and body, sits in the
// read buffer, so the next Recv reads nothing from the socket.
func (tc *tcpConn) pending() bool {
	n := tc.br.Buffered()
	if n < frameHdrLen {
		return false
	}
	hdr, _ := tc.br.Peek(frameHdrLen)
	return uint64(n-frameHdrLen) >= uint64(binary.BigEndian.Uint32(hdr))
}

func (tc *tcpConn) Close() error       { return tc.c.Close() }
func (tc *tcpConn) LocalAddr() string  { return tc.c.LocalAddr().String() }
func (tc *tcpConn) RemoteAddr() string { return tc.c.RemoteAddr().String() }

// mapNetErr folds the several shutdown errors into ErrClosed so callers
// have a single sentinel to test.
func mapNetErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrClosed
	}
	return err
}
