// Package node assembles one broker node — the unit the paper deploys:
// the pub/sub router (§2), the §4.3 guard at its ingress and the §3.3
// trace manager, with its optional durable trace log (PROTOCOL.md §3.8)
// and fabric membership (§3.9). brokerd, the test harness and the
// examples all build their brokers through Start.
//
// Start-up order:
//
//  1. the guard, holding the node's clock and flight recorder;
//  2. the durable store, when Config.LogDir is set (recovery runs here);
//  3. the broker, vetting ingress with the guard and persisting to the
//     store;
//  4. the trace manager, built and started, so its registration and
//     session-key subscriptions are live;
//  5. only then the listener: a client dialing the moment Start returns
//     — or redialing a restarted broker — cannot publish its
//     registration before the manager listens and stall for a
//     RegisterTimeout;
//  6. then the hand-wired link (Config.Connect) or the fabric.
//
// Shut-down runs the other way: fabric, manager, broker, store — the
// store closes only after the broker, so no publish appends after the
// final sync.
package node

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"

	"entitytrace/internal/backoff"
	"entitytrace/internal/broker"
	"entitytrace/internal/clock"
	"entitytrace/internal/core"
	"entitytrace/internal/durable"
	"entitytrace/internal/fabric"
	"entitytrace/internal/ident"
	"entitytrace/internal/obs"
	"entitytrace/internal/transport"
)

// Config is one node's settings. Name, Clock, Log and the flight recorder
// are set here once and handed to every part; the part configs hold the
// rest, and a field of theirs the node wires itself must be left unset.
type Config struct {
	// Name names the broker: its link hello, flight recorder, fabric
	// membership and session-key delivery topic (required; a valid
	// ident.EntityID, since it becomes a topic segment).
	Name string
	// Clock is the time of guard, broker, trace manager and fabric
	// (required: a node is never given a default clock).
	Clock clock.Clock
	// Log is every part's structured logger; nil silences diagnostics.
	Log *slog.Logger
	// FlightEvents, when positive, sizes the flight recorder the guard and
	// the broker share; FlightSample is its 1-in-N healthy sampling (zero
	// selects obs.DefaultFlightSample).
	FlightEvents, FlightSample int
	// Transport carries the listener and every outbound link (required).
	Transport transport.Transport
	// Listen is the address to serve on.
	Listen string

	// Guard configures the §4.3 guard; Clock and Flight are the node's.
	Guard core.GuardConfig
	// LogDir, when set, opens the durable trace log there with Durable's
	// options.
	LogDir  string
	Durable durable.Options
	// Broker configures the router; Name, Guard, Clock, Durable, Flight
	// and Log are the node's.
	Broker broker.Config
	// Manager configures the trace manager; Broker, Guard and Log are the
	// node's.
	Manager core.BrokerConfig

	// Connect, when set, links to the peer broker at that address, the
	// link named by the address. ConnectRetry paces its redial; zero
	// dials once and fails Start on a dial error.
	Connect      string
	ConnectRetry backoff.Config
	// Fabric, when non-nil, joins the sharded fabric; Broker, Transport,
	// Addr, Clock, Log and Store are the node's.
	Fabric *fabric.Config
}

// check refuses a config missing what the node cannot default or setting
// what the node wires itself.
func (cfg *Config) check() error {
	switch {
	case cfg.Name == "":
		return errors.New("node: Config.Name is required")
	case cfg.Clock == nil:
		return errors.New("node: Config.Clock is required")
	case cfg.Transport == nil:
		return errors.New("node: Config.Transport is required")
	}
	if err := ident.EntityID(cfg.Name).Validate(); err != nil {
		return fmt.Errorf("node: Config.Name: %w", err)
	}
	f := cfg.Fabric
	if f == nil {
		f = &fabric.Config{}
	}
	wired := []struct {
		field string
		set   bool
	}{
		{"Guard.Clock", cfg.Guard.Clock != nil},
		{"Guard.Flight", cfg.Guard.Flight != nil},
		{"Broker.Name", cfg.Broker.Name != ""},
		{"Broker.Guard", cfg.Broker.Guard != nil},
		{"Broker.Clock", cfg.Broker.Clock != nil},
		{"Broker.Durable", cfg.Broker.Durable != nil},
		{"Broker.Flight", cfg.Broker.Flight != nil},
		{"Broker.Log", cfg.Broker.Log != nil},
		{"Manager.Broker", cfg.Manager.Broker != nil},
		{"Manager.Guard", cfg.Manager.Guard != nil},
		{"Manager.Log", cfg.Manager.Log != nil},
		{"Fabric.Broker", f.Broker != nil},
		{"Fabric.Transport", f.Transport != nil},
		{"Fabric.Addr", f.Addr != ""},
		{"Fabric.Clock", f.Clock != nil},
		{"Fabric.Log", f.Log != nil},
		{"Fabric.Store", f.Store != nil},
	}
	for _, w := range wired {
		if w.set {
			return fmt.Errorf("node: Config.%s is wired by the node and must be left unset", w.field)
		}
	}
	return nil
}

// Node is one running broker node. Store and Fabric are nil when off,
// Flight when FlightEvents is not positive.
type Node struct {
	Guard   *core.Guard
	Store   *durable.Store
	Broker  *broker.Broker
	Manager *core.TraceBroker
	Fabric  *fabric.Fabric
	Flight  *obs.FlightRecorder
	// Addr is the address the node serves on.
	Addr string

	stopOnce sync.Once
}

// Start assembles and starts a node in the order the package comment
// gives. On error everything it had started is closed again.
func Start(cfg Config) (*Node, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	n := &Node{}
	if cfg.FlightEvents > 0 {
		n.Flight = obs.NewFlightRecorder(cfg.Name, cfg.FlightEvents, cfg.FlightSample)
	}
	gc := cfg.Guard
	gc.Clock, gc.Flight = cfg.Clock, n.Flight
	n.Guard = core.NewGuard(gc)
	if cfg.LogDir != "" {
		store, err := durable.Open(cfg.LogDir, cfg.Durable)
		if err != nil {
			return nil, fmt.Errorf("node: durable log: %w", err)
		}
		n.Store = store
	}
	bc := cfg.Broker
	bc.Name, bc.Guard, bc.Clock, bc.Durable, bc.Flight, bc.Log = cfg.Name, n.Guard.Admit, cfg.Clock, n.Store, n.Flight, cfg.Log
	n.Broker = broker.New(bc)
	mc := cfg.Manager
	mc.Broker, mc.Guard, mc.Log = n.Broker, n.Guard, cfg.Log
	mgr, err := core.NewTraceBroker(mc)
	if err != nil {
		n.Close()
		return nil, fmt.Errorf("node: trace manager: %w", err)
	}
	n.Manager = mgr
	mgr.Start()
	l, err := cfg.Transport.Listen(cfg.Listen)
	if err != nil {
		n.Close()
		return nil, fmt.Errorf("node: listen: %w", err)
	}
	n.Addr = l.Addr()
	n.Broker.Serve(l)
	if cfg.Connect != "" {
		if err := n.Broker.Link(cfg.Connect, cfg.Transport, cfg.Connect, cfg.ConnectRetry); err != nil {
			n.Close()
			return nil, fmt.Errorf("node: link to %s: %w", cfg.Connect, err)
		}
	}
	if cfg.Fabric != nil {
		fc := *cfg.Fabric
		fc.Broker, fc.Transport, fc.Addr, fc.Clock, fc.Log, fc.Store = n.Broker, cfg.Transport, n.Addr, cfg.Clock, cfg.Log, n.Store
		f, err := fabric.New(fc)
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("node: fabric: %w", err)
		}
		n.Fabric = f
		f.Start()
	}
	return n, nil
}

// Close shuts the node down gracefully: the fabric leaves (gossiping its
// tombstone and handing off), then manager, broker and store close.
func (n *Node) Close() { n.stop(true) }

// Crash stops the node the way SIGKILL would: the fabric detaches without
// a word, and the store is abandoned without a final sync, so recovery
// finds exactly what the write path had handed to the OS.
func (n *Node) Crash() { n.stop(false) }

func (n *Node) stop(graceful bool) {
	n.stopOnce.Do(func() {
		switch {
		case n.Fabric == nil:
		case graceful:
			n.Fabric.Close()
		default:
			n.Fabric.Kill()
		}
		if n.Manager != nil {
			n.Manager.Close()
		}
		n.Broker.Close()
		switch {
		case n.Store == nil:
		case graceful:
			n.Store.Close()
		default:
			n.Store.Crash()
		}
	})
}
