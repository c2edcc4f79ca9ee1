package tdn

import (
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"entitytrace/internal/credential"
	"entitytrace/internal/ident"
	"entitytrace/internal/obs"
	"entitytrace/internal/secure"
	"entitytrace/internal/topic"
	"entitytrace/internal/wire"
)

// TDN activity counters across all nodes in the process (§3.1).
var (
	mTopicsCreated = obs.Default.Counter("tdn_topics_created_total")
	mReplications  = obs.Default.Counter("tdn_replications_total")
	mDiscServed    = obs.Default.Counter(obs.WithLabel("tdn_discoveries_total", "outcome", "served"))
	mDiscDenied    = obs.Default.Counter(obs.WithLabel("tdn_discoveries_total", "outcome", "not_found"))
	mSwept         = obs.Default.Counter("tdn_advertisements_swept_total")
)

// Node errors.
var (
	// ErrUnauthorizedDiscovery reports a discovery attempt by an entity
	// outside the topic's restrictions. Per §3.1, such requests are
	// simply "ignored by the TDN" — the RPC layer translates this into a
	// not-found response so unauthorized requesters cannot distinguish a
	// restricted topic from a nonexistent one.
	ErrUnauthorizedDiscovery = errors.New("tdn: discovery not authorized")
	// ErrBadRequest reports an invalid creation or discovery request.
	ErrBadRequest = errors.New("tdn: bad request")
	// ErrNotFound reports no matching advertisements.
	ErrNotFound = errors.New("tdn: no matching topic")
)

// DefaultLifetime bounds topics whose creation request does not specify
// a lifetime.
const DefaultLifetime = 24 * time.Hour

// CreateRequest asks a TDN to create a topic (§3.1): credentials, a
// descriptor, discovery restrictions and a lifetime, signed by the
// owner to prove key possession.
type CreateRequest struct {
	Owner      ident.EntityID
	OwnerCert  []byte
	Descriptor string
	AllowAny   bool
	Allowed    []string
	Lifetime   time.Duration
	RequestID  ident.RequestID
	Signature  []byte // owner signature over the fields above
}

func (cr *CreateRequest) signingBytes() []byte {
	var w wire.Writer
	w.Str(string(cr.Owner))
	w.Bytes(cr.OwnerCert)
	w.Str(cr.Descriptor)
	w.Bool(cr.AllowAny)
	for _, a := range cr.Allowed {
		w.Str(a)
	}
	w.Raw(cr.RequestID[:])
	w.I64(int64(cr.Lifetime))
	return w.Buf
}

// SignCreateRequest signs the request with the owner's signer.
func (cr *CreateRequest) Sign(s *secure.Signer) error {
	sig, err := s.Sign(cr.signingBytes())
	if err != nil {
		return err
	}
	cr.Signature = sig
	return nil
}

// Node is one Topic Discovery Node. It holds advertisements in memory,
// replicates new ones to peers, and prunes expired topics. Safe for
// concurrent use.
type Node struct {
	name     string
	identity *credential.Identity
	signer   *secure.Signer
	verifier *credential.Verifier
	now      func() time.Time
	log      *slog.Logger

	mu         sync.RWMutex
	byID       map[ident.UUID]*Advertisement
	peers      []Replicator
	storageDir string
	closed     bool
}

// Replicator receives advertisements created at other TDNs.
type Replicator interface {
	Replicate(ad *Advertisement) error
}

// NewNode creates a TDN with the given identity (issued by the system
// CA) and a verifier trusting that CA.
func NewNode(id *credential.Identity, verifier *credential.Verifier) (*Node, error) {
	if id == nil || id.Private == nil {
		return nil, errors.New("tdn: node needs an identity with a private key")
	}
	signer, err := secure.NewSigner(id.Private, secure.SHA256)
	if err != nil {
		return nil, err
	}
	return &Node{
		name:     string(id.Credential.Entity),
		identity: id,
		signer:   signer,
		verifier: verifier,
		now:      time.Now,
		log:      obs.OrDiscard(nil), // silent until SetLogger
		byID:     make(map[ident.UUID]*Advertisement),
	}, nil
}

// SetTimeFunc overrides the node clock, for lifetime tests.
func (n *Node) SetTimeFunc(f func() time.Time) { n.now = f }

// SetLogger installs a structured logger for creation, replication and
// discovery diagnostics; nil (the default) silences them.
func (n *Node) SetLogger(l *slog.Logger) { n.log = obs.OrDiscard(l).With("tdn", n.name) }

// Name returns the TDN's name.
func (n *Node) Name() string { return n.name }

// AddPeer registers a replication target.
func (n *Node) AddPeer(p Replicator) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers = append(n.peers, p)
}

// CreateTopic validates a creation request, generates the topic UUID,
// signs the advertisement, stores it, replicates it to peer TDNs and
// returns it (§3.1).
func (n *Node) CreateTopic(req *CreateRequest) (*Advertisement, error) {
	if err := req.Owner.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if strings.TrimSpace(req.Descriptor) == "" {
		return nil, fmt.Errorf("%w: empty descriptor", ErrBadRequest)
	}
	// Verify the owner credential chains to the CA and names the owner.
	cred := &credential.Credential{Entity: req.Owner, Cert: req.OwnerCert}
	ownerPub, err := n.verifier.Verify(cred)
	if err != nil {
		return nil, fmt.Errorf("%w: credential: %v", ErrBadRequest, err)
	}
	// Verify proof of key possession.
	if err := secure.Verify(ownerPub, secure.SHA1, req.signingBytes(), req.Signature); err != nil {
		if err2 := secure.Verify(ownerPub, secure.SHA256, req.signingBytes(), req.Signature); err2 != nil {
			return nil, fmt.Errorf("%w: request signature: %v", ErrBadRequest, err)
		}
	}
	lifetime := req.Lifetime
	if lifetime <= 0 {
		lifetime = DefaultLifetime
	}
	now := n.now()
	ad := &Advertisement{
		TopicID:    ident.NewUUID(), // generated at the TDN, not the entity
		Owner:      req.Owner,
		OwnerCert:  req.OwnerCert,
		Descriptor: req.Descriptor,
		AllowAny:   req.AllowAny,
		Allowed:    append([]string(nil), req.Allowed...),
		CreatedAt:  now.UnixNano(),
		ExpiresAt:  now.Add(lifetime).UnixNano(),
		TDNName:    n.name,
		TDNCert:    n.identity.Credential.Cert,
	}
	sig, err := n.signer.Sign(ad.signingBytes())
	if err != nil {
		return nil, err
	}
	ad.Signature = sig

	n.mu.Lock()
	n.byID[ad.TopicID] = ad
	peers := append([]Replicator(nil), n.peers...)
	n.mu.Unlock()
	n.persist(ad)
	mTopicsCreated.Inc()
	n.log.Info("topic created", "topic", ad.TopicID, "owner", ad.Owner,
		"descriptor", ad.Descriptor, "peers", len(peers))
	// Best-effort replication: the scheme "sustains the loss of TDN
	// nodes" because each advertisement is stored at multiple TDNs.
	for _, p := range peers {
		_ = p.Replicate(ad)
	}
	return ad, nil
}

// Replicate stores an advertisement created at another TDN after
// verifying its signature chain.
func (n *Node) Replicate(ad *Advertisement) error {
	if _, err := ad.Verify(n.verifier, n.now()); err != nil {
		n.log.Warn("replication rejected", "topic", ad.TopicID, "err", err)
		return err
	}
	n.mu.Lock()
	if _, exists := n.byID[ad.TopicID]; exists {
		n.mu.Unlock()
		return nil
	}
	n.byID[ad.TopicID] = ad
	n.mu.Unlock()
	n.persist(ad)
	mReplications.Inc()
	n.log.Debug("advertisement replicated", "topic", ad.TopicID, "from", ad.TDNName)
	return nil
}

// Discover evaluates a discovery query for a credentialed requester.
// Queries take the /Liveness/<Entity-ID> form (§3.4), match a descriptor
// exactly, or — supporting the topic discovery scheme's "variety of
// query formats" (§2.2) — match a descriptor prefix when they end in
// "/*" (e.g. "Availability/Traces/*"). Per-advertisement discovery
// restrictions apply to every match. Unauthorized or unmatched queries
// return ErrNotFound indistinguishably (§3.1: ignored).
func (n *Node) Discover(query string, requester ident.EntityID, requesterCert []byte) ([]*Advertisement, error) {
	cred := &credential.Credential{Entity: requester, Cert: requesterCert}
	if _, err := n.verifier.Verify(cred); err != nil {
		return nil, fmt.Errorf("%w: credential: %v", ErrBadRequest, err)
	}
	descriptor := query
	if entity, ok := topic.EntityFromLivenessQuery(query); ok {
		descriptor = string(topic.AvailabilityDescriptor(entity))
	}
	prefix := ""
	if strings.HasSuffix(descriptor, "/*") {
		prefix = strings.TrimSuffix(descriptor, "*")
	}
	now := n.now()
	var out []*Advertisement
	n.mu.RLock()
	for _, ad := range n.byID {
		if prefix != "" {
			if !strings.HasPrefix(ad.Descriptor, prefix) {
				continue
			}
		} else if ad.Descriptor != descriptor {
			continue
		}
		if now.UnixNano() > ad.ExpiresAt {
			continue
		}
		if !ad.MayDiscover(requester) {
			continue
		}
		out = append(out, ad)
	}
	n.mu.RUnlock()
	if len(out) == 0 {
		// Unauthorized and unmatched queries are indistinguishable by
		// design, so the counter cannot separate them either.
		mDiscDenied.Inc()
		n.log.Debug("discovery empty", "query", query, "requester", requester)
		return nil, ErrNotFound
	}
	mDiscServed.Inc()
	n.log.Debug("discovery served", "query", query, "requester", requester, "matches", len(out))
	return out, nil
}

// Lookup fetches an advertisement by topic UUID regardless of discovery
// restrictions; brokers use it to resolve topic owners when validating
// authorization tokens. Expired advertisements are not returned.
func (n *Node) Lookup(id ident.UUID) (*Advertisement, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ad, ok := n.byID[id]
	if !ok || n.now().UnixNano() > ad.ExpiresAt {
		return nil, false
	}
	return ad, true
}

// Sweep removes expired advertisements, returning how many were pruned.
func (n *Node) Sweep() int {
	now := n.now().UnixNano()
	n.mu.Lock()
	var expired []ident.UUID
	for id, ad := range n.byID {
		if now > ad.ExpiresAt {
			delete(n.byID, id)
			expired = append(expired, id)
		}
	}
	n.mu.Unlock()
	for _, id := range expired {
		n.unpersist(id.String())
	}
	if len(expired) > 0 {
		mSwept.Add(uint64(len(expired)))
		n.log.Info("swept expired advertisements", "count", len(expired))
	}
	return len(expired)
}

// Size reports stored advertisements.
func (n *Node) Size() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.byID)
}
