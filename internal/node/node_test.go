package node

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestCloseClosesTheStoreAfterTheBroker: a client publishes a persisted
// stream while the node closes. Closing the broker first drains every
// ingress loop, so no publish reaches the store after it has closed —
// none fails to append — and the store is closed when Close returns.
func TestCloseClosesTheStoreAfterTheBroker(t *testing.T) {
	tr := transport.NewInproc()
	cfg := config(t, tr)
	cfg.LogDir = t.TempDir()
	cfg.Durable = durable.Options{Fsync: durable.FsyncNever}
	cfg.Broker.DurablePersist = func(topic.Topic) bool { return true }
	n := start(t, cfg)

	// Several publishers keep the broker's ingress loops busy, so some
	// publish is always in flight when Close begins.
	tp := topic.MustParse("/node/close-race")
	var publishers sync.WaitGroup
	for i := 0; i < 4; i++ {
		name := ident.EntityID(fmt.Sprintf("node-pub-%d", i))
		cl, err := broker.Connect(tr, n.Addr, name)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		publishers.Add(1)
		go func() {
			defer publishers.Done()
			for cl.Publish(message.New(message.TypeData, tp, name, []byte("x"))) == nil {
			}
		}()
	}
	for n.Store.Head(tp.String()) < 1000 {
		time.Sleep(time.Millisecond)
	}
	appendErrs := obs.Default.Counter("durable_append_errors_total")
	before := appendErrs.Value()
	n.Close()
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
