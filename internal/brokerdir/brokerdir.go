// Package brokerdir is the broker discovery scheme of §3.2 (the paper
// defers to Ref [3], "On the Discovery of Brokers in Distributed
// Messaging Infrastructures"): brokers register themselves with a
// directory, periodically refresh their registration with a load figure,
// and entities ask the directory for a valid broker — by default the
// least-loaded live one.
package brokerdir

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"entitytrace/internal/obs"
	"entitytrace/internal/transport"
	"entitytrace/internal/wire"
)

// ErrNoBrokers reports an empty or fully expired directory.
var ErrNoBrokers = errors.New("brokerdir: no live brokers")

// mExpired counts registrations dropped for missing their refresh —
// by the periodic sweep or lazily on lookup. A rising rate means
// brokers are dying (or partitioned from the directory) faster than
// they re-register.
var mExpired = obs.Default.Counter("brokerdir_expired_total")

// DefaultTTL is how long a registration stays valid without refresh.
const DefaultTTL = 30 * time.Second

// Entry describes one registered broker.
type Entry struct {
	// Name is the broker's name.
	Name string
	// Transport and Addr tell entities how to connect.
	Transport string
	Addr      string
	// Load is the broker's self-reported load (e.g. peer count).
	Load float64
	// Epoch is the broker's fabric ownership-table epoch (PROTOCOL.md
	// §3.9); zero for brokers outside a fabric. Carried so joining
	// brokers and operators can see how converged the fabric's view is.
	Epoch uint64
	// RenewedAt is the last refresh time.
	RenewedAt time.Time
}

// Directory is the in-memory registry. Safe for concurrent use.
type Directory struct {
	mu      sync.Mutex
	entries map[string]*Entry
	ttl     time.Duration
	now     func() time.Time
}

// NewDirectory creates a directory with the given registration TTL
// (<= 0 selects DefaultTTL).
func NewDirectory(ttl time.Duration) *Directory {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Directory{
		entries: make(map[string]*Entry),
		ttl:     ttl,
		now:     time.Now,
	}
}

// SetTimeFunc overrides the clock, for tests.
func (d *Directory) SetTimeFunc(f func() time.Time) { d.now = f }

// Register adds or refreshes a broker registration.
func (d *Directory) Register(name, transportName, addr string, load float64) error {
	return d.RegisterEpoch(name, transportName, addr, load, 0)
}

// RegisterEpoch is Register also carrying the broker's fabric
// ownership-table epoch.
func (d *Directory) RegisterEpoch(name, transportName, addr string, load float64, epoch uint64) error {
	if name == "" || transportName == "" || addr == "" {
		return errors.New("brokerdir: name, transport and addr are required")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.entries[name] = &Entry{
		Name:      name,
		Transport: transportName,
		Addr:      addr,
		Load:      load,
		Epoch:     epoch,
		RenewedAt: d.now(),
	}
	return nil
}

// Deregister removes a broker.
func (d *Directory) Deregister(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.entries, name)
}

// live returns unexpired entries, pruning dead ones.
func (d *Directory) live() []*Entry {
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []*Entry
	for name, e := range d.entries {
		if now.Sub(e.RenewedAt) > d.ttl {
			delete(d.entries, name)
			mExpired.Inc()
			continue
		}
		cp := *e
		out = append(out, &cp)
	}
	return out
}

// Sweep prunes expired registrations immediately, returning how many
// were dropped. Without it a dead broker lingers until the next lookup
// happens to walk past it — under rapid churn Pick could keep returning
// an entry whose broker died within the TTL window; a periodic sweep
// (see StartSweeper and cmd/brokerdird) bounds that staleness.
func (d *Directory) Sweep() int {
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	dropped := 0
	for name, e := range d.entries {
		if now.Sub(e.RenewedAt) > d.ttl {
			delete(d.entries, name)
			mExpired.Inc()
			dropped++
		}
	}
	return dropped
}

// StartSweeper runs Sweep every interval (<= 0 selects half the TTL)
// until the returned stop function is called.
func (d *Directory) StartSweeper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = d.ttl / 2
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				d.Sweep()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// Pick returns the least-loaded live broker.
func (d *Directory) Pick() (*Entry, error) {
	live := d.live()
	if len(live) == 0 {
		return nil, ErrNoBrokers
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].Load != live[j].Load {
			return live[i].Load < live[j].Load
		}
		return live[i].Name < live[j].Name
	})
	return live[0], nil
}

// List returns all live brokers sorted by name.
func (d *Directory) List() []*Entry {
	live := d.live()
	sort.Slice(live, func(i, j int) bool { return live[i].Name < live[j].Name })
	return live
}

// --- RPC exposure --------------------------------------------------------

// Op codes and statuses for the directory's wire protocol.
const (
	opRegister uint8 = iota + 1
	opDeregister
	opPick
	opList
)

const (
	statusOK uint8 = iota
	statusEmpty
	statusBad
)

// Server exposes a Directory over a transport.
type Server struct {
	dir *Directory
	mu  sync.Mutex
	ls  []transport.Listener
	wg  sync.WaitGroup
}

// NewServer wraps a directory.
func NewServer(dir *Directory) *Server { return &Server{dir: dir} }

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l transport.Listener) {
	s.mu.Lock()
	s.ls = append(s.ls, l)
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				for {
					frame, err := conn.Recv()
					if err != nil {
						return
					}
					if err := conn.Send(s.dispatch(frame)); err != nil {
						return
					}
				}
			}()
		}
	}()
}

// Close stops the server.
func (s *Server) Close() {
	s.mu.Lock()
	ls := s.ls
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	s.wg.Wait()
}

func (s *Server) dispatch(frame []byte) []byte {
	if len(frame) < 1 {
		return []byte{statusBad}
	}
	switch frame[0] {
	case opRegister:
		e, err := decodeEntry(frame[1:])
		if err != nil {
			return []byte{statusBad}
		}
		if err := s.dir.RegisterEpoch(e.Name, e.Transport, e.Addr, e.Load, e.Epoch); err != nil {
			return []byte{statusBad}
		}
		return []byte{statusOK}
	case opDeregister:
		s.dir.Deregister(string(frame[1:]))
		return []byte{statusOK}
	case opPick:
		e, err := s.dir.Pick()
		if err != nil {
			return []byte{statusEmpty}
		}
		return append([]byte{statusOK}, encodeEntry(e)...)
	case opList:
		entries := s.dir.List()
		w := wire.Writer{Buf: []byte{statusOK}}
		w.U32(uint32(len(entries)))
		for _, e := range entries {
			w.Bytes(encodeEntry(e))
		}
		return w.Buf
	default:
		return []byte{statusBad}
	}
}

// maxLoadMicros bounds an entry's load field, in millionths: up to it,
// a decoded load re-encodes to the same field.
const maxLoadMicros = 1 << 51

func encodeEntry(e *Entry) []byte {
	var w wire.Writer
	w.Str(e.Name)
	w.Str(e.Transport)
	w.Str(e.Addr)
	w.U64(uint64(math.Round(e.Load * 1e6)))
	// Epoch is appended after the original fields; decodeEntry has always
	// ignored trailing bytes, so pre-epoch peers interoperate.
	w.U64(e.Epoch)
	return w.Buf
}

func decodeEntry(b []byte) (*Entry, error) {
	r := wire.NewReader(b, wire.MaxField)
	e := &Entry{}
	e.Name = r.Str()
	e.Transport = r.Str()
	e.Addr = r.Str()
	load := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if load > maxLoadMicros {
		return nil, fmt.Errorf("brokerdir: load field %d over %d millionths", load, maxLoadMicros)
	}
	e.Load = float64(load) / 1e6
	// Optional trailing epoch (absent from pre-epoch encoders).
	if r.Len() >= 8 {
		e.Epoch = r.U64()
	}
	return e, nil
}

// ConnectBest picks the least-loaded live broker from the directory and
// returns a transport plus address for connecting to it — the "securely
// discover a valid broker" step of §3.2. It fails if the registered
// transport is unknown.
func (d *Directory) ConnectBest() (transport.Transport, string, error) {
	e, err := d.Pick()
	if err != nil {
		return nil, "", err
	}
	tr, err := transport.New(e.Transport)
	if err != nil {
		return nil, "", err
	}
	return tr, e.Addr, nil
}

// Client talks to a directory server.
type Client struct {
	tr   transport.Transport
	addr string
}

// NewClient targets the directory at addr.
func NewClient(tr transport.Transport, addr string) *Client {
	return &Client{tr: tr, addr: addr}
}

func (c *Client) call(frame []byte) ([]byte, error) {
	conn, err := c.tr.Dial(c.addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.Send(frame); err != nil {
		return nil, err
	}
	return conn.Recv()
}

// Register announces a broker.
func (c *Client) Register(name, transportName, addr string, load float64) error {
	return c.RegisterEpoch(name, transportName, addr, load, 0)
}

// RegisterEpoch is Register also carrying the broker's fabric
// ownership-table epoch.
func (c *Client) RegisterEpoch(name, transportName, addr string, load float64, epoch uint64) error {
	e := &Entry{Name: name, Transport: transportName, Addr: addr, Load: load, Epoch: epoch}
	resp, err := c.call(append([]byte{opRegister}, encodeEntry(e)...))
	if err != nil {
		return err
	}
	if len(resp) < 1 || resp[0] != statusOK {
		return errors.New("brokerdir: register rejected")
	}
	return nil
}

// Deregister removes a broker.
func (c *Client) Deregister(name string) error {
	resp, err := c.call(append([]byte{opDeregister}, name...))
	if err != nil {
		return err
	}
	if len(resp) < 1 || resp[0] != statusOK {
		return errors.New("brokerdir: deregister rejected")
	}
	return nil
}

// Pick returns the least-loaded live broker.
func (c *Client) Pick() (*Entry, error) {
	resp, err := c.call([]byte{opPick})
	if err != nil {
		return nil, err
	}
	if len(resp) < 1 {
		return nil, errors.New("brokerdir: empty response")
	}
	if resp[0] == statusEmpty {
		return nil, ErrNoBrokers
	}
	if resp[0] != statusOK {
		return nil, errors.New("brokerdir: pick rejected")
	}
	return decodeEntry(resp[1:])
}

// ConnectBest is the client-side counterpart of Directory.ConnectBest:
// pick the least-loaded live broker over RPC and return how to reach it.
func (c *Client) ConnectBest() (transport.Transport, string, error) {
	e, err := c.Pick()
	if err != nil {
		return nil, "", err
	}
	tr, err := transport.New(e.Transport)
	if err != nil {
		return nil, "", err
	}
	return tr, e.Addr, nil
}

// List fetches all live brokers.
func (c *Client) List() ([]*Entry, error) {
	resp, err := c.call([]byte{opList})
	if err != nil {
		return nil, err
	}
	if len(resp) < 5 || resp[0] != statusOK {
		return nil, errors.New("brokerdir: list rejected")
	}
	r := wire.NewReader(resp[1:], wire.MaxField)
	n := r.U32()
	if n > 1<<16 {
		return nil, errors.New("brokerdir: absurd list length")
	}
	out := make([]*Entry, 0, n)
	for i := uint32(0); i < n; i++ {
		raw := r.View()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("brokerdir: list: %w", err)
		}
		e, err := decodeEntry(raw)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}
