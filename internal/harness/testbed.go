// Package harness builds reproducible experiment environments for the
// paper's evaluation (§6): chains of brokers (Figure 1), the star of
// tracker groups (Figure 3), and measurement routines producing the
// mean/standard-deviation/standard-error summaries of Tables 3 and 4.
package harness

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"entitytrace/internal/avail"
	"entitytrace/internal/backoff"
	"entitytrace/internal/broker"
	"entitytrace/internal/brokerdir"
	"entitytrace/internal/clock"
	"entitytrace/internal/core"
	"entitytrace/internal/credential"
	"entitytrace/internal/durable"
	"entitytrace/internal/fabric"
	"entitytrace/internal/failure"
	"entitytrace/internal/ident"
	"entitytrace/internal/node"
	"entitytrace/internal/obs/timeseries"
	"entitytrace/internal/secure"
	"entitytrace/internal/stats"
	"entitytrace/internal/tdn"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// Options configures a testbed.
type Options struct {
	// Brokers is the chain length. The paper's "N hops" topology is a
	// chain of N brokers with the traced entity attached to the first
	// and the measuring tracker to the last.
	Brokers int
	// Transport selects "inproc", "tcp" or "udp".
	Transport string
	// PerHopLatency injects artificial one-way latency on every link,
	// standing in for the paper's LAN (§6.1 reports 1-2 ms per hop).
	PerHopLatency time.Duration
	// Security enables §5.1 trace encryption ("authorization & security"
	// rows of Table 3); with it off only authorization applies.
	Security bool
	// Symmetric enables the §6.3 signing-cost optimization.
	Symmetric bool
	// SessionKeys enables the §6.3 session-tag signing amortization on
	// every broker: steady-state traces carry HMAC session tags verified
	// against negotiated session keys instead of per-message RSA.
	SessionKeys bool
	// BatchBytes enables egress drain coalescing on every broker: each
	// writer pass packs queued frames under this byte budget into one
	// batch send (zero disables).
	BatchBytes int
	// Detector overrides failure detection tuning (zero selects a
	// 100 ms ping interval suitable for experiments).
	Detector failure.Config
	// GaugeInterval overrides the §3.5 interest-gauging period.
	GaugeInterval time.Duration
	// InterestTTL overrides how long tracker interest lasts without
	// renewal (default: effectively forever, for stable measurements).
	InterestTTL time.Duration
	// ShapeSeed seeds the PerHopLatency shaping wrapper (default 1);
	// experiments that sweep seeds set it explicitly.
	ShapeSeed int64
	// WrapTransport, when set, wraps the (possibly shaped) transport
	// before any broker, entity or tracker uses it — the hook the chaos
	// injector plugs into.
	WrapTransport func(transport.Transport) transport.Transport
	// ViolationLimit overrides the brokers' per-peer violation budget.
	// Chaos corruption runs raise it so injected garbage does not
	// exhaust a legitimate peer's allowance (§5.2 punishes real
	// attackers; the injector is not one).
	ViolationLimit int
	// EgressQueue overrides the brokers' per-peer egress queue bound
	// (zero selects the broker default).
	EgressQueue int
	// SlowConsumerDeadline overrides how long a peer's egress queue may
	// stay saturated before the peer is evicted (zero selects the broker
	// default).
	SlowConsumerDeadline time.Duration
	// PublishRate/PublishBurst enable per-publisher token-bucket
	// admission control on every broker (zero PublishRate disables).
	PublishRate  float64
	PublishBurst int
	// PersistentLinks connects the broker chain with backoff-paced
	// persistent links (fast test-friendly pacing) instead of one-shot
	// dials, so the topology heals after link flaps.
	PersistentLinks bool
	// Reconnect wires automatic redial + session resume into every
	// entity and tracker the testbed starts.
	Reconnect bool
	// ReconnectBackoff paces entity/tracker redial (zero selects fast
	// test-friendly defaults).
	ReconnectBackoff backoff.Config
	// TrackerReconnectBackoff, when non-zero, paces tracker redial
	// separately from entities. Crash-recovery tests slow it down to
	// open a deterministic window in which the entity is already back
	// and publishing while the tracker is still away — the gap that
	// only durable replay can close.
	TrackerReconnectBackoff backoff.Config
	// FlightEvents, when positive, gives each broker a flight recorder of
	// that many events (Node.Flight).
	FlightEvents int
	// FlightSample is the healthy-path sampling period of the flight
	// recorders (1 records everything; zero selects
	// obs.DefaultFlightSample). Drops and guard rejections are always
	// recorded regardless.
	FlightSample int
	// AvailInterval enables per-broker availability digests on the
	// system-availability topic every interval (zero disables broker
	// ledgers and digests).
	AvailInterval time.Duration
	// TelemetryInterval enables the per-broker telemetry plane
	// (PROTOCOL.md §3.10): sampling into a per-broker time-series store
	// plus delta-encoded snapshots on the system-telemetry topic — what
	// `tracectl top` and `tracectl map` read — every interval (zero
	// disables).
	TelemetryInterval time.Duration
	// TelemetryRules runs the anomaly engine over every broker's store
	// (alert edges ride in the published snapshots).
	TelemetryRules []timeseries.Rule
	// Avail is the template config for every availability ledger the
	// testbed creates (per broker when AvailInterval is set, and per
	// tracker always); zero-value fields take the avail.New defaults.
	Avail avail.Config
	// LogDir enables per-broker durable trace logs (PROTOCOL.md §3.8)
	// rooted at this directory, one subdirectory per broker. Trackers
	// the testbed starts request catch-up replay automatically, and
	// StopBroker/RestartBroker exercise crash recovery on the same
	// directory.
	LogDir string
	// LogSegmentBytes overrides the durable-log segment roll size.
	LogSegmentBytes int64
	// LogFsync selects the durable-log fsync policy (default FsyncBatch;
	// crash-recovery tests use FsyncAlways so every append survives).
	LogFsync durable.FsyncPolicy
	// Fabric assembles the brokers into a sharded fabric (PROTOCOL.md
	// §3.9) instead of a hand-wired chain: an in-process broker
	// directory bootstraps discovery, gossip maintains membership, and
	// links to shard owners are auto-dialed.
	Fabric bool
	// GossipInterval paces fabric gossip (zero selects a test-friendly
	// 50ms).
	GossipInterval time.Duration
	// FabricFailAfter overrides how long a member's heartbeat may stall
	// before peers fail it (zero means 5x GossipInterval).
	FabricFailAfter time.Duration
}

func (o *Options) setDefaults() {
	if o.Brokers <= 0 {
		o.Brokers = 1
	}
	if o.Transport == "" {
		o.Transport = "inproc"
	}
	if o.Detector == (failure.Config{}) {
		o.Detector = failure.Config{
			BaseInterval:       100 * time.Millisecond,
			MinInterval:        25 * time.Millisecond,
			MaxInterval:        time.Second,
			ResponseTimeout:    250 * time.Millisecond,
			SuspicionThreshold: 3,
			FailureThreshold:   2,
			SuccessesPerRelax:  1 << 30, // keep the interval fixed during measurements
		}
	}
	if o.GaugeInterval <= 0 {
		o.GaugeInterval = 250 * time.Millisecond
	}
	if o.InterestTTL <= 0 {
		o.InterestTTL = time.Hour // interest never expires mid-experiment
	}
	if o.GossipInterval <= 0 {
		o.GossipInterval = 50 * time.Millisecond
	}
	if o.ShapeSeed == 0 {
		o.ShapeSeed = 1
	}
}

// fastBackoff returns cfg, substituting test-friendly defaults (quick
// initial retry, bounded cap, fixed seed) for a zero value.
func fastBackoff(cfg backoff.Config, seed int64) backoff.Config {
	if cfg == (backoff.Config{}) {
		return backoff.Config{
			Initial: 20 * time.Millisecond,
			Max:     500 * time.Millisecond,
			Seed:    seed,
		}
	}
	return cfg
}

// Testbed is a running system: CA, TDN, and a chain (or fabric) of
// broker nodes.
type Testbed struct {
	Opts     Options
	CA       *credential.Authority
	Verifier *credential.Verifier
	Node     *tdn.Node
	// Nodes holds the broker nodes; Brokers, Addrs and Fabrics are indexed
	// like it.
	Nodes   []*node.Node
	Brokers []*broker.Broker
	Addrs   []string
	// Fabrics holds each broker's fabric membership (nil entries unless
	// Options.Fabric is set, or after a StopBroker crash).
	Fabrics []*fabric.Fabric
	// Dir is the in-process broker directory fabrics bootstrap from
	// (nil unless Options.Fabric is set).
	Dir *brokerdir.Directory

	tr       transport.Transport
	dirSrv   *brokerdir.Server
	dirAddr  string
	entities []*core.TracedEntity
	trackers []*core.Tracker
}

// New builds a testbed with opts.
func New(opts Options) (*Testbed, error) {
	opts.setDefaults()
	tb := &Testbed{Opts: opts}

	var tr transport.Transport
	var err error
	if opts.Transport == "inproc" {
		tr = transport.NewInproc()
	} else {
		tr, err = transport.New(opts.Transport)
		if err != nil {
			return nil, err
		}
	}
	if opts.PerHopLatency > 0 {
		tr, err = transport.NewShaped(tr, transport.ShapeConfig{Latency: opts.PerHopLatency, Seed: opts.ShapeSeed})
		if err != nil {
			return nil, err
		}
	}
	if opts.WrapTransport != nil {
		tr = opts.WrapTransport(tr)
	}
	tb.tr = tr

	tb.CA, err = credential.NewAuthority("harness-ca", credential.WithKeyBits(secure.PaperRSABits))
	if err != nil {
		return nil, err
	}
	tb.Verifier, err = credential.NewVerifier(tb.CA.CACertificate())
	if err != nil {
		return nil, err
	}
	tdnID, err := tb.CA.Issue("harness-tdn")
	if err != nil {
		return nil, err
	}
	tb.Node, err = tdn.NewNode(tdnID, tb.Verifier)
	if err != nil {
		return nil, err
	}

	if opts.Fabric {
		// The directory only bootstraps discovery: registrations refresh
		// every gossip interval, so a short TTL keeps dead brokers from
		// lingering as hints.
		tb.Dir = brokerdir.NewDirectory(5 * time.Second)
		tb.dirSrv = brokerdir.NewServer(tb.Dir)
		dl, err := tr.Listen(tb.freshAddr())
		if err != nil {
			return nil, err
		}
		tb.dirSrv.Serve(dl)
		tb.dirAddr = dl.Addr()
	}

	for i := 0; i < opts.Brokers; i++ {
		if err := tb.startBroker(i, ""); err != nil {
			tb.Close()
			return nil, err
		}
	}
	return tb, nil
}

// startBroker starts broker node i. An empty listenAddr picks a fresh
// address; a concrete one reuses it (restart). Outside a fabric the node
// links to its predecessor in the chain. Index i == len(tb.Nodes) appends
// a new node; an existing index is replaced in place.
func (tb *Testbed) startBroker(i int, listenAddr string) error {
	opts := tb.Opts
	// Broker identities carry the broker role (OU marker): hosting
	// brokers only honour session-key requests from interested trackers
	// or broker-role credentials.
	brokerID, err := tb.CA.IssueBroker(ident.EntityID(fmt.Sprintf("harness-broker-%d", i)))
	if err != nil {
		return err
	}
	if listenAddr == "" {
		listenAddr = tb.freshAddr()
	}
	name := fmt.Sprintf("hb%d", i)
	cfg := node.Config{
		Name:         name,
		Clock:        clock.Real{},
		FlightEvents: opts.FlightEvents,
		FlightSample: opts.FlightSample,
		Transport:    tb.tr,
		Listen:       listenAddr,
		Guard: core.GuardConfig{
			Resolver: core.NewCachingResolver(core.NodeResolver(tb.Node)),
			Verifier: tb.Verifier,
			Cache:    core.NewTokenCache(0),
		},
		Broker: broker.Config{
			ViolationLimit:       opts.ViolationLimit,
			EgressQueue:          opts.EgressQueue,
			SlowConsumerDeadline: opts.SlowConsumerDeadline,
			PublishRate:          opts.PublishRate,
			PublishBurst:         opts.PublishBurst,
			BatchBytes:           opts.BatchBytes,
		},
		Manager: core.BrokerConfig{
			Identity:          brokerID,
			Detector:          opts.Detector,
			GaugeInterval:     opts.GaugeInterval,
			InterestTTL:       opts.InterestTTL,
			AvailInterval:     opts.AvailInterval,
			Avail:             tb.newLedger(opts.AvailInterval > 0),
			TelemetryInterval: opts.TelemetryInterval,
			TelemetryRules:    opts.TelemetryRules,
		},
	}
	if opts.SessionKeys {
		cfg.Guard.Sessions = core.NewSessionStore(0)
	}
	if opts.LogDir != "" {
		// One durable-log directory per broker, stable across restarts so
		// recovery replays what the previous incarnation persisted.
		cfg.LogDir = filepath.Join(opts.LogDir, name)
		cfg.Durable = durable.Options{SegmentBytes: opts.LogSegmentBytes, Fsync: opts.LogFsync}
	}
	switch {
	case opts.Fabric:
		cfg.Fabric = &fabric.Config{
			TransportName:  opts.Transport,
			Dir:            brokerdir.NewClient(tb.tr, tb.dirAddr),
			GossipInterval: opts.GossipInterval,
			FailAfter:      opts.FabricFailAfter,
		}
	case i > 0:
		cfg.Connect = tb.Addrs[i-1]
		if opts.PersistentLinks {
			cfg.ConnectRetry = fastBackoff(backoff.Config{}, opts.ShapeSeed+int64(i))
		}
	}
	n, err := node.Start(cfg)
	if err != nil {
		return err
	}
	if i == len(tb.Nodes) {
		tb.Nodes = append(tb.Nodes, n)
		tb.Brokers = append(tb.Brokers, n.Broker)
		tb.Fabrics = append(tb.Fabrics, n.Fabric)
		tb.Addrs = append(tb.Addrs, n.Addr)
	} else {
		tb.Nodes[i], tb.Brokers[i], tb.Fabrics[i], tb.Addrs[i] = n, n.Broker, n.Fabric, n.Addr
	}
	return nil
}

// StopBroker simulates a broker crash (Node.Crash): node i goes down and
// its durable store is abandoned without a final sync.
func (tb *Testbed) StopBroker(i int) error {
	if i < 0 || i >= len(tb.Nodes) {
		return errors.New("harness: broker index out of range")
	}
	tb.Nodes[i].Crash()
	tb.Fabrics[i] = nil
	return nil
}

// RestartBroker rebuilds a stopped broker i on its original address and
// durable-log directory: recovery scans and verifies the persisted
// segments, and reconnecting consumers resume their replay cursors.
func (tb *Testbed) RestartBroker(i int) error {
	if i < 0 || i >= len(tb.Nodes) {
		return errors.New("harness: broker index out of range")
	}
	return tb.startBroker(i, tb.Addrs[i])
}

// Transport exposes the testbed's transport so callers can attach extra
// raw clients (observers, adversaries) to its brokers.
func (tb *Testbed) Transport() transport.Transport { return tb.tr }

// newLedger builds one availability ledger from the options template
// (nil unless enabled).
func (tb *Testbed) newLedger(enabled bool) *avail.Ledger {
	if !enabled {
		return nil
	}
	return avail.New(tb.Opts.Avail)
}

// freshAddr is the listen address that picks a new endpoint on the
// testbed's transport.
func (tb *Testbed) freshAddr() string {
	if tb.Opts.Transport == "inproc" {
		return ""
	}
	return "127.0.0.1:0"
}

// Close tears the system down.
func (tb *Testbed) Close() {
	for _, tk := range tb.trackers {
		tk.Close()
	}
	for _, e := range tb.entities {
		_ = e.Stop()
	}
	for _, n := range tb.Nodes {
		n.Close()
	}
	if tb.dirSrv != nil {
		tb.dirSrv.Close()
	}
}

// StartEntity brings up a traced entity attached to broker brokerIdx.
func (tb *Testbed) StartEntity(name string, brokerIdx int) (*core.TracedEntity, error) {
	if brokerIdx < 0 || brokerIdx >= len(tb.Addrs) {
		return nil, errors.New("harness: broker index out of range")
	}
	id, err := tb.CA.Issue(ident.EntityID(name))
	if err != nil {
		return nil, err
	}
	addr := tb.Addrs[brokerIdx]
	cl, err := broker.Connect(tb.tr, addr, ident.EntityID(name))
	if err != nil {
		return nil, err
	}
	cfg := core.EntityConfig{
		Identity:         id,
		Verifier:         tb.Verifier,
		Registry:         tb.Node,
		Client:           cl,
		SecureTraces:     tb.Opts.Security,
		SymmetricChannel: tb.Opts.Symmetric,
		AllowAnyTracker:  true,
		TokenKeyBits:     secure.PaperRSABits,
		TokenValidity:    time.Hour,
	}
	if tb.Opts.Reconnect {
		cfg.Redial = func() (*broker.Client, error) {
			return broker.Connect(tb.tr, addr, ident.EntityID(name))
		}
		cfg.ReconnectBackoff = fastBackoff(tb.Opts.ReconnectBackoff, tb.Opts.ShapeSeed)
	}
	ent, err := core.StartTracing(cfg)
	if err != nil {
		return nil, err
	}
	tb.entities = append(tb.entities, ent)
	return ent, nil
}

// TrackerHandle couples a tracker with its event stream for one watch.
type TrackerHandle struct {
	Tracker *core.Tracker
	Watch   *core.Watch
	Events  chan core.Event
	// Avail is the tracker's availability ledger, fed by every verified
	// trace this tracker delivers.
	Avail *avail.Ledger
}

// StartTracker brings up a tracker on broker brokerIdx following the
// named entity with the given classes. Its events arrive on the
// returned channel (buffered; overflow drops).
func (tb *Testbed) StartTracker(name string, brokerIdx int, entity string, classes topic.ClassSet) (*TrackerHandle, error) {
	return tb.StartTrackerPaced(name, brokerIdx, entity, classes, backoff.Config{})
}

// StartTrackerPaced is StartTracker with an explicit reconnect pace for
// this one tracker, overriding Options.TrackerReconnectBackoff. Crash
// tests use it to pair a fast-redialing tracker (whose restored
// interest keeps the manager publishing after a broker restart) with a
// slow one whose catch-up replay is under test. A zero pace falls back
// to the testbed-wide options.
func (tb *Testbed) StartTrackerPaced(name string, brokerIdx int, entity string, classes topic.ClassSet, pace backoff.Config) (*TrackerHandle, error) {
	if brokerIdx < 0 || brokerIdx >= len(tb.Addrs) {
		return nil, errors.New("harness: broker index out of range")
	}
	id, err := tb.CA.Issue(ident.EntityID(name))
	if err != nil {
		return nil, err
	}
	addr := tb.Addrs[brokerIdx]
	cl, err := broker.Connect(tb.tr, addr, ident.EntityID(name))
	if err != nil {
		return nil, err
	}
	ledger := tb.newLedger(true)
	cfg := core.TrackerConfig{
		Identity:  id,
		Verifier:  tb.Verifier,
		Discovery: tb.Node,
		Resolver:  core.NewCachingResolver(core.NodeResolver(tb.Node)),
		Client:    cl,
		Avail:     ledger,
		// Durable brokers serve catch-up replay; trackers use it so the
		// ledger sees traces published while they were away (§3.8).
		Replay: tb.Opts.LogDir != "",
	}
	if tb.Opts.Reconnect {
		cfg.Redial = func() (*broker.Client, error) {
			return broker.Connect(tb.tr, addr, ident.EntityID(name))
		}
		if pace == (backoff.Config{}) {
			pace = tb.Opts.TrackerReconnectBackoff
		}
		if pace == (backoff.Config{}) {
			pace = tb.Opts.ReconnectBackoff
		}
		cfg.ReconnectBackoff = fastBackoff(pace, tb.Opts.ShapeSeed+1)
	}
	tk, err := core.NewTracker(cfg)
	if err != nil {
		cl.Close()
		return nil, err
	}
	ad, err := tk.Discover(ident.EntityID(entity))
	if err != nil {
		tk.Close()
		return nil, err
	}
	events := make(chan core.Event, 1024)
	w, err := tk.Track(ad, classes, func(ev core.Event) {
		select {
		case events <- ev:
		default:
		}
	})
	if err != nil {
		tk.Close()
		return nil, err
	}
	tb.trackers = append(tb.trackers, tk)
	return &TrackerHandle{Tracker: tk, Watch: w, Events: events, Avail: ledger}, nil
}

// AwaitTraceKey blocks until the §5.1 trace key reaches the watch.
func (h *TrackerHandle) AwaitTraceKey(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if h.Watch.HasTraceKey() {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("harness: trace key not delivered in time")
}

// MeasureStateTraces measures end-to-end trace routing overhead: the
// traced entity reports a state transition and the measuring tracker
// timestamps the verified delivery. Both run in this process (as in the
// paper, "to obviate the need for clock synchronizations, the traced
// entity and the measuring tracker were hosted on the same machine"),
// so latency = receive time − report time. It returns a Sample in
// milliseconds.
func MeasureStateTraces(ent *core.TracedEntity, h *TrackerHandle, rounds int, timeout time.Duration) (*stats.Sample, error) {
	return measureStateTraces(ent, h.Events, rounds, timeout)
}

func measureStateTraces(ent *core.TracedEntity, events <-chan core.Event, rounds int, timeout time.Duration) (*stats.Sample, error) {
	sample := stats.NewSample(true)
	// Alternate between READY and RECOVERING so each report is a real
	// transition.
	for i := 0; i < rounds; i++ {
		want := core.StateForRound(i)
		if err := ent.SetState(want); err != nil {
			return nil, err
		}
		// Interest registration is asynchronous (§3.5): a transition
		// reported before the broker learns of the tracker's interest is
		// legitimately not published. Re-issue the transition every
		// second — on a ticker, because heartbeats arrive every ping
		// interval and must not hold a retry off. Each delivered event
		// carries its own report timestamp, so retries do not distort the
		// measured latency.
		deadline := time.After(timeout)
		retry := time.NewTicker(time.Second)
		var ev core.Event
		var err error
		for err == nil && (ev.State == nil || ev.State.To != want) {
			select {
			case ev = <-events:
			case <-retry.C:
				err = ent.SetState(want)
			case <-deadline:
				err = fmt.Errorf("harness: round %d: no state trace within %v", i, timeout)
			}
		}
		retry.Stop()
		if err != nil {
			return nil, err
		}
		sample.AddDuration(ev.ReceivedAt.Sub(time.Unix(0, ev.State.At)))
	}
	return sample, nil
}

// DrainEvents empties an event channel (between measurement phases).
func DrainEvents(events <-chan core.Event) {
	for {
		select {
		case <-events:
		default:
			return
		}
	}
}
