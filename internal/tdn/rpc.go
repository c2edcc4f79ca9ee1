package tdn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"entitytrace/internal/ident"
	"entitytrace/internal/transport"
	"entitytrace/internal/wire"
)

// RPC op codes.
const (
	opCreate uint8 = iota + 1
	opDiscover
	opReplicate
	opLookup
)

// RPC status codes.
const (
	statusOK uint8 = iota
	statusNotFound
	statusBadRequest
	statusError
)

// Server exposes a Node over a transport.
type Server struct {
	node *Node
	wg   sync.WaitGroup
	mu   sync.Mutex
	ls   []transport.Listener
	done bool
}

// NewServer wraps a node.
func NewServer(node *Node) *Server { return &Server{node: node} }

// Serve accepts RPC connections on l until the listener closes.
func (s *Server) Serve(l transport.Listener) {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		l.Close()
		return
	}
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
				s.handle(conn)
			}()
		}
	}()
}

// Close stops the server.
func (s *Server) Close() {
	s.mu.Lock()
	s.done = true
	ls := s.ls
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	s.wg.Wait()
}

// handle serves requests on one connection until it closes.
func (s *Server) handle(conn transport.Conn) {
	defer conn.Close()
	for {
		frame, err := conn.Recv()
		if err != nil {
			return
		}
		resp := s.dispatch(frame)
		if err := conn.Send(resp); err != nil {
			return
		}
	}
}

// dispatch decodes one request frame and produces the response frame.
func (s *Server) dispatch(frame []byte) []byte {
	if len(frame) < 1 {
		return marshalResponse(statusBadRequest, "empty frame", nil)
	}
	op, body := frame[0], frame[1:]
	switch op {
	case opCreate:
		req, err := unmarshalCreateRequest(body)
		if err != nil {
			return marshalResponse(statusBadRequest, err.Error(), nil)
		}
		ad, err := s.node.CreateTopic(req)
		if err != nil {
			return marshalResponse(statusFor(err), err.Error(), nil)
		}
		return marshalResponse(statusOK, "", [][]byte{ad.Marshal()})
	case opDiscover:
		query, requester, cert, err := unmarshalDiscoverRequest(body)
		if err != nil {
			return marshalResponse(statusBadRequest, err.Error(), nil)
		}
		ads, err := s.node.Discover(query, requester, cert)
		if err != nil {
			return marshalResponse(statusFor(err), err.Error(), nil)
		}
		wire := make([][]byte, len(ads))
		for i, ad := range ads {
			wire[i] = ad.Marshal()
		}
		return marshalResponse(statusOK, "", wire)
	case opReplicate:
		ad, err := UnmarshalAdvertisement(body)
		if err != nil {
			return marshalResponse(statusBadRequest, err.Error(), nil)
		}
		if err := s.node.Replicate(ad); err != nil {
			return marshalResponse(statusError, err.Error(), nil)
		}
		return marshalResponse(statusOK, "", nil)
	case opLookup:
		if len(body) != 16 {
			return marshalResponse(statusBadRequest, "lookup wants 16 bytes", nil)
		}
		var id ident.UUID
		copy(id[:], body)
		ad, ok := s.node.Lookup(id)
		if !ok {
			return marshalResponse(statusNotFound, "unknown topic", nil)
		}
		return marshalResponse(statusOK, "", [][]byte{ad.Marshal()})
	default:
		return marshalResponse(statusBadRequest, fmt.Sprintf("unknown op %d", op), nil)
	}
}

func statusFor(err error) uint8 {
	switch {
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrUnauthorizedDiscovery):
		// Unauthorized discovery is reported as not-found (§3.1: ignored).
		return statusNotFound
	case errors.Is(err, ErrBadRequest):
		return statusBadRequest
	default:
		return statusError
	}
}

// --- wire helpers -------------------------------------------------------

func marshalCreateRequest(req *CreateRequest) []byte {
	var w wire.Writer
	w.U8(opCreate)
	w.Str(string(req.Owner))
	w.Bytes(req.OwnerCert)
	w.Str(req.Descriptor)
	w.Bool(req.AllowAny)
	w.U32(uint32(len(req.Allowed)))
	for _, a := range req.Allowed {
		w.Str(a)
	}
	w.I64(int64(req.Lifetime))
	w.Raw(req.RequestID[:])
	w.Bytes(req.Signature)
	return w.Buf
}

func unmarshalCreateRequest(b []byte) (*CreateRequest, error) {
	r := wire.NewReader(b, wire.MaxField)
	req := &CreateRequest{}
	req.Owner = ident.EntityID(r.Str())
	req.OwnerCert = r.Bytes()
	req.Descriptor = r.Str()
	req.AllowAny = r.Bool()
	n := r.U32()
	if r.Err() == nil && n > maxListEntries {
		return nil, fmt.Errorf("%w: too many allowed entries", ErrBadRequest)
	}
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		req.Allowed = append(req.Allowed, r.Str())
	}
	req.Lifetime = time.Duration(r.I64())
	req.RequestID = r.UUID()
	req.Signature = r.Bytes()
	if r.Done() != nil {
		return nil, fmt.Errorf("%w: malformed create request", ErrBadRequest)
	}
	return req, nil
}

func marshalDiscoverRequest(query string, requester ident.EntityID, cert []byte) []byte {
	var w wire.Writer
	w.U8(opDiscover)
	w.Str(query)
	w.Str(string(requester))
	w.Bytes(cert)
	return w.Buf
}

func unmarshalDiscoverRequest(b []byte) (query string, requester ident.EntityID, cert []byte, err error) {
	r := wire.NewReader(b, wire.MaxField)
	query = r.Str()
	requester = ident.EntityID(r.Str())
	cert = r.Bytes()
	if r.Done() != nil {
		return "", "", nil, fmt.Errorf("%w: malformed discover request", ErrBadRequest)
	}
	return query, requester, cert, nil
}

func marshalResponse(status uint8, detail string, ads [][]byte) []byte {
	var w wire.Writer
	w.U8(status)
	w.Str(detail)
	w.U32(uint32(len(ads)))
	for _, ad := range ads {
		w.Bytes(ad)
	}
	return w.Buf
}

func unmarshalResponse(b []byte) (status uint8, detail string, ads []*Advertisement, err error) {
	r := wire.NewReader(b, wire.MaxField)
	status = r.U8()
	detail = r.Str()
	n := r.U32()
	if r.Err() == nil && n > maxListEntries {
		return 0, "", nil, errors.New("tdn: too many advertisements in response")
	}
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		raw := r.View()
		if r.Err() != nil {
			break
		}
		ad, aerr := UnmarshalAdvertisement(raw)
		if aerr != nil {
			return 0, "", nil, aerr
		}
		ads = append(ads, ad)
	}
	if r.Done() != nil {
		return 0, "", nil, errors.New("tdn: malformed response")
	}
	return status, detail, ads, nil
}

// --- client -------------------------------------------------------------

// Client talks to one or more TDN servers, failing over between them:
// "since a given topic advertisement will be stored at multiple TDN
// nodes, this scheme sustains the loss of TDN nodes" (§2.2).
type Client struct {
	tr    transport.Transport
	addrs []string
}

// NewClient creates a client with an ordered list of TDN addresses.
func NewClient(tr transport.Transport, addrs ...string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("tdn: client needs at least one address")
	}
	return &Client{tr: tr, addrs: addrs}, nil
}

// call tries each TDN in turn until one answers.
func (c *Client) call(frame []byte) ([]byte, error) {
	var lastErr error
	for _, addr := range c.addrs {
		conn, err := c.tr.Dial(addr)
		if err != nil {
			lastErr = err
			continue
		}
		err = conn.Send(frame)
		if err == nil {
			var resp []byte
			resp, err = conn.Recv()
			if err == nil {
				conn.Close()
				return resp, nil
			}
		}
		conn.Close()
		lastErr = err
	}
	return nil, fmt.Errorf("tdn: all TDNs unreachable: %w", lastErr)
}

// CreateTopic sends a creation request, returning the signed
// advertisement.
func (c *Client) CreateTopic(req *CreateRequest) (*Advertisement, error) {
	resp, err := c.call(marshalCreateRequest(req))
	if err != nil {
		return nil, err
	}
	status, detail, ads, err := unmarshalResponse(resp)
	if err != nil {
		return nil, err
	}
	if status != statusOK || len(ads) != 1 {
		return nil, fmt.Errorf("tdn: create failed: %s", detail)
	}
	return ads[0], nil
}

// Discover runs a discovery query with the requester's credential.
func (c *Client) Discover(query string, requester ident.EntityID, cert []byte) ([]*Advertisement, error) {
	resp, err := c.call(marshalDiscoverRequest(query, requester, cert))
	if err != nil {
		return nil, err
	}
	status, detail, ads, err := unmarshalResponse(resp)
	if err != nil {
		return nil, err
	}
	switch status {
	case statusOK:
		return ads, nil
	case statusNotFound:
		return nil, ErrNotFound
	default:
		return nil, fmt.Errorf("tdn: discover failed: %s", detail)
	}
}

// Lookup resolves a topic UUID to its advertisement.
func (c *Client) Lookup(id ident.UUID) (*Advertisement, error) {
	frame := append([]byte{opLookup}, id[:]...)
	resp, err := c.call(frame)
	if err != nil {
		return nil, err
	}
	status, detail, ads, err := unmarshalResponse(resp)
	if err != nil {
		return nil, err
	}
	if status == statusNotFound {
		return nil, ErrNotFound
	}
	if status != statusOK || len(ads) != 1 {
		return nil, fmt.Errorf("tdn: lookup failed: %s", detail)
	}
	return ads[0], nil
}

// RemoteReplicator replicates advertisements to a TDN over the network;
// wire two server-backed nodes together with node.AddPeer.
type RemoteReplicator struct {
	tr   transport.Transport
	addr string
}

// NewRemoteReplicator targets the TDN server at addr.
func NewRemoteReplicator(tr transport.Transport, addr string) *RemoteReplicator {
	return &RemoteReplicator{tr: tr, addr: addr}
}

// Replicate implements Replicator.
func (r *RemoteReplicator) Replicate(ad *Advertisement) error {
	conn, err := r.tr.Dial(r.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send(append([]byte{opReplicate}, ad.Marshal()...)); err != nil {
		return err
	}
	resp, err := conn.Recv()
	if err != nil {
		return err
	}
	status, detail, _, err := unmarshalResponse(resp)
	if err != nil {
		return err
	}
	if status != statusOK {
		return fmt.Errorf("tdn: replicate failed: %s", detail)
	}
	return nil
}
