package node

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"entitytrace/internal/backoff"
	"entitytrace/internal/broker"
	"entitytrace/internal/clock"
	"entitytrace/internal/core"
	"entitytrace/internal/credential"
	"entitytrace/internal/durable"
	"entitytrace/internal/fabric"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/secure"
	"entitytrace/internal/tdn"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// world is a CA, its verifier and a TDN node, shared by every test.
var world struct {
	once     sync.Once
	ca       *credential.Authority
	verifier *credential.Verifier
	tdn      *tdn.Node
	err      error
}

// config returns a minimal valid node config on tr.
func config(t *testing.T, tr transport.Transport) Config {
	t.Helper()
	world.once.Do(func() {
		if world.ca, world.err = credential.NewAuthority("node-ca", credential.WithKeyBits(secure.PaperRSABits)); world.err != nil {
			return
		}
		if world.verifier, world.err = credential.NewVerifier(world.ca.CACertificate()); world.err != nil {
			return
		}
		var id *credential.Identity
		if id, world.err = world.ca.Issue("node-tdn"); world.err == nil {
			world.tdn, world.err = tdn.NewNode(id, world.verifier)
		}
	})
	if world.err != nil {
		t.Fatal(world.err)
	}
	id, err := world.ca.IssueBroker("node-broker")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Name:      "node-test",
		Clock:     clock.Real{},
		Transport: tr,
		Guard:     core.GuardConfig{Resolver: core.NewCachingResolver(core.NodeResolver(world.tdn)), Verifier: world.verifier},
		Manager:   core.BrokerConfig{Identity: id},
	}
}

func start(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// listenProbe runs probe when the node binds its listener.
type listenProbe struct {
	transport.Transport
	probe func()
}

func (p *listenProbe) Listen(addr string) (transport.Listener, error) {
	p.probe()
	return p.Transport.Listen(addr)
}

// TestStartServesOnlyOnceTheManagerListens: when the listener binds, the
// trace manager is already running — its telemetry loop is publishing —
// so a client that dials the instant Start returns registers on its
// first attempt (no Redial is configured: a registration published into
// the void would fail StartTracing after RegisterTimeout).
func TestStartServesOnlyOnceTheManagerListens(t *testing.T) {
	snapshots := obs.Default.Counter("core_telemetry_snapshots_total")
	var managerFirst atomic.Bool
	tr := &listenProbe{Transport: transport.NewInproc(), probe: func() {
		before := snapshots.Value()
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if snapshots.Value() > before {
				managerFirst.Store(true)
				return
			}
		}
	}}
	cfg := config(t, tr)
	cfg.Manager.TelemetryInterval = time.Millisecond
	n := start(t, cfg)
	if !managerFirst.Load() {
		t.Fatal("the node listened before its trace manager started")
	}

	id, err := world.ca.Issue("node-svc")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := broker.Connect(tr, n.Addr, "node-svc")
	if err != nil {
		t.Fatal(err)
	}
	ent, err := core.StartTracing(core.EntityConfig{
		Identity:        id,
		Verifier:        world.verifier,
		Registry:        world.tdn,
		Client:          cl,
		AllowAnyTracker: true,
		RegisterTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("first registration attempt failed: %v", err)
	}
	defer ent.Stop()
	if got := n.Manager.SessionCount(); got != 1 {
		t.Fatalf("manager hosts %d sessions, want 1", got)
	}
}

// TestCloseClosesTheStoreAfterTheBroker: linked brokers forward a
// persisted stream into the node while it closes. Closing the broker
// first drains every ingress loop: while one loop is held mid-publish
// after the node has dropped its links, the store is still open; no
// publish reaches the store after it has closed — none fails to append
// — and the store is closed when Close returns.
func TestCloseClosesTheStoreAfterTheBroker(t *testing.T) {
	tr := transport.NewInproc()
	cfg := config(t, tr)
	cfg.LogDir = t.TempDir()
	cfg.Durable = durable.Options{Fsync: durable.FsyncNever}
	// The stream is a trace derivative, the set a broker persists, tagged
	// with a session key the node's guard holds, so it is admitted at the
	// cost of one HMAC.
	tt := ident.NewUUID()
	now := time.Now()
	params, err := secure.NewSessionParams([32]byte{1}, now.UnixNano(), now.Add(time.Hour).UnixNano())
	if err != nil {
		t.Fatal(err)
	}
	key, err := params.Derive(tt.String(), "node-owner")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Guard.Sessions = core.NewSessionStore(0)
	cfg.Guard.Sessions.Install(tt, key)
	n := start(t, cfg)

	// The node subscribes, so brokers linked to it forward what is
	// published on the topic. Each forward enters through its link's
	// ingress loop, which persists it before delivering it here; once
	// armed, the first delivery holds its loop until released.
	tp := topic.AllUpdates(tt)
	var armed atomic.Bool
	var hold sync.Once
	held, release := make(chan struct{}), make(chan struct{})
	n.Broker.SubscribeLocal(tp, func(*message.Envelope) {
		if armed.Load() {
			hold.Do(func() {
				close(held)
				<-release
			})
		}
	})

	// Several linked publishers keep the loops busy, so persisting
	// publishes are in flight when Close begins.
	stop := make(chan struct{})
	var publishers sync.WaitGroup
	edges := make([]*broker.Broker, 4)
	for i := range edges {
		edge := broker.New(broker.Config{Name: fmt.Sprintf("node-edge-%d", i)})
		defer edge.Close()
		if err := edge.Link("node", tr, n.Addr, backoff.Config{}); err != nil {
			t.Fatal(err)
		}
		edges[i] = edge
		publishers.Add(1)
		go func() {
			defer publishers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				env := message.New(message.TraceAllsWell, tp, "", []byte("x"))
				if err := env.SignSession(key); err != nil {
					t.Error(err)
					return
				}
				edge.Publish(env)
			}
		}()
	}
	for n.Store.Head(tp.String()) < 1000 {
		time.Sleep(time.Millisecond)
	}
	appendErrs := obs.Default.Counter("durable_append_errors_total")
	before := appendErrs.Value()
	armed.Store(true)
	<-held
	closed := make(chan struct{})
	go func() {
		n.Close()
		close(closed)
	}()
	linked := func() bool {
		for _, e := range edges {
			if e.LinkUp("node") {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(10 * time.Second); linked() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if linked() {
		t.Error("the node kept its links while closing")
	} else if _, err := n.Store.Append("/node/probe", []byte("probe")); err != nil {
		t.Errorf("store closed while the broker was still draining: %v", err)
	}
	close(release)
	<-closed
	close(stop)
	publishers.Wait()
	if got := appendErrs.Value() - before; got != 0 {
		t.Fatalf("%d publishes reached the store after it closed", got)
	}
	if _, err := n.Store.Append(tp.String(), []byte("late")); err == nil {
		t.Fatal("store still open after Close")
	}
}

// TestStartRefusesWhatTheNodeWires: a config setting a field the node
// wires itself, or leaving out the clock, is refused before anything
// starts.
func TestStartRefusesWhatTheNodeWires(t *testing.T) {
	tr := transport.NewInproc()
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"Clock", func(c *Config) { c.Clock = nil }},
		{"Name", func(c *Config) { c.Name = "*" }},
		{"Name", func(c *Config) { c.Name = "a/b" }},
		{"Guard.Clock", func(c *Config) { c.Guard.Clock = clock.Real{} }},
		{"Broker.Name", func(c *Config) { c.Broker.Name = "other" }},
		{"Broker.Guard", func(c *Config) { c.Broker.Guard = core.NewGuard(c.Guard).Admit }},
		{"Broker.Durable", func(c *Config) { c.Broker.Durable = &durable.Store{} }},
		{"Manager.Guard", func(c *Config) { c.Manager.Guard = core.NewGuard(c.Guard) }},
		{"Fabric.Store", func(c *Config) { c.Fabric = &fabric.Config{Store: &durable.Store{}} }},
	} {
		cfg := config(t, tr)
		tc.set(&cfg)
		if n, err := Start(cfg); err == nil {
			n.Close()
			t.Errorf("%s: config accepted", tc.field)
		} else if !strings.Contains(err.Error(), "Config."+tc.field) {
			t.Errorf("%s: error %q does not name the field", tc.field, err)
		}
	}
	// The same config with nothing wired set starts.
	start(t, config(t, tr))
}
