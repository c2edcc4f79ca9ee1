// Command brokerd runs one broker node of the pub/sub substrate (§2)
// together with its trace manager (§3.3): it routes topic-addressed
// messages, enforces constrained topics and authorization tokens, hosts
// trace registrations, pings traced entities and publishes their traces.
//
//	brokerd -pki pki -identity pki/broker-1.pem -listen 127.0.0.1:7100 \
//	        -tdn 127.0.0.1:7000 [-connect host:port] [-dir host:port]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
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
	"entitytrace/internal/ident"
	"entitytrace/internal/node"
	"entitytrace/internal/obs"
	"entitytrace/internal/obs/timeseries"
	"entitytrace/internal/tdn"
	"entitytrace/internal/transport"
)

var (
	pki           = flag.String("pki", "pki", "PKI directory (trust anchor)")
	identityPath  = flag.String("identity", "", "PEM identity file for this broker")
	listen        = flag.String("listen", "127.0.0.1:7100", "listen address")
	transportName = flag.String("transport", "tcp", "transport: tcp or udp")
	name          = flag.String("name", "", "broker name (default: identity common name)")
	tdnAddrs      = flag.String("tdn", "", "comma-separated TDN addresses for token validation")
	connect       = flag.String("connect", "", "peer broker address to link with")
	linkRetry     = flag.Duration("link-retry", 250*time.Millisecond, "initial redial delay for the -connect persistent link")
	linkRetryMax  = flag.Duration("link-retry-max", 30*time.Second, "redial delay ceiling for the -connect persistent link")
	dirAddr       = flag.String("dir", "", "broker directory to register with (optional)")
	fabricOn      = flag.Bool("fabric", false, "join the sharded broker fabric: gossip membership, consistent-hash trace-topic ownership, auto-dialed links (PROTOCOL.md §3.9); peers are discovered via -dir and gossip, no -connect wiring needed")
	gossipEvery   = flag.Duration("gossip-interval", 500*time.Millisecond, "fabric gossip/heartbeat period")
	failAfter     = flag.Duration("fail-after", 0, "declare a fabric member failed after this heartbeat silence (0 means 5x -gossip-interval)")
	adminAddr     = flag.String("admin", "", "HTTP admin endpoint (e.g. 127.0.0.1:7190) serving /metrics, /healthz, /trace, /avail, /timeseries and /debug/pprof")
	egressQueue   = flag.Int("egress-queue", broker.DefaultEgressQueue, "per-peer outbound queue bound in frames; oldest data is shed when full")
	slowDeadline  = flag.Duration("slow-consumer-deadline", broker.DefaultSlowConsumerDeadline, "how long a peer's egress queue may stay saturated before eviction")
	pubRate       = flag.Float64("pub-rate", 0, "per-publisher admission rate in envelopes/sec (0 disables rate limiting)")
	pubBurst      = flag.Int("pub-burst", 0, "token-bucket burst for -pub-rate (0 means max(1, rate))")
	quarantine    = flag.Duration("quarantine", broker.DefaultQuarantineDuration, "how long an evicted principal's reconnects are refused (negative disables)")
	guardCache    = flag.Int("guard-cache", core.DefaultTokenCacheSize, "verified-token cache entries for trace authorization (0 disables caching)")
	sessionKeys   = flag.Bool("session-keys", false, "enable §6.3 session-key signing amortization: steady-state traces carry HMAC session tags instead of per-message RSA signatures")
	batchBytes    = flag.Int("batch-bytes", 0, "egress drain coalescing byte budget per batch frame (0 disables batching)")
	flightEvents  = flag.Int("flight", obs.DefaultFlightEvents, "flight-recorder ring size in events (0 disables recording)")
	traceSample   = flag.Int("trace-sample", obs.DefaultFlightSample, "record 1-in-N healthy flight events (drops are always recorded; 1 records everything)")
	telemEvery    = flag.Duration("telemetry-interval", time.Second, "telemetry sample/snapshot period on the system-telemetry topic, the stream tracectl top, map and avail read (0 disables the telemetry plane and the availability ledger)")
	telemRetain   = flag.String("telemetry-retention", "", "time-series retention as fine@step/coarse@step, e.g. 15m@1s/2h@15s (empty keeps the default)")
	alertRules    = flag.String("alert-rules", "", "semicolon-separated alert rules, e.g. 'deep-queues: broker_egress_queue_depth > 100 for 2s hold 10s; absent(broker_published_total) for 5s' (PROTOCOL.md §3.10)")
	sloTarget     = flag.Float64("slo-target", 0, "default availability SLO target for hosted entities, e.g. 0.999 (0 disables SLO accounting)")
	sloWindow     = flag.Duration("slo-window", time.Hour, "rolling window the SLO target applies over")
	burnAlert     = flag.Float64("burn-alert", 0, "error-budget burn rate that raises a burn_alert event (0 disables)")
	flapCount     = flag.Int("flap-transitions", 0, "up/down transitions within -flap-window that mark an entity FLAPPING (0 keeps the default of 5)")
	flapWindow    = flag.Duration("flap-window", 0, "window for -flap-transitions (0 keeps the default of 1m)")
	flapHold      = flag.Duration("flap-hold", 0, "quiet hold-down before a FLAPPING entity settles (0 keeps the default of 30s)")
	logDir        = flag.String("log-dir", "", "durable trace-log directory; enables persist-before-fan-out and ack'd replay of constrained trace topics (empty disables durability)")
	logRetention  = flag.Duration("log-retention", 24*time.Hour, "how long sealed durable-log segments are retained (0 keeps them forever)")
	logSegBytes   = flag.Int64("log-segment-bytes", 8<<20, "durable-log segment roll size in bytes")
	logFsync      = flag.String("log-fsync", "batch", "durable-log fsync policy: batch (group commit), always (per append), or never (page cache only)")
	metricsDump   = flag.Bool("metrics", false, "dump process metrics (counters, histograms) to stdout at exit")
	verbose       = flag.Bool("v", false, "log at debug level instead of info")
	logJSON       = flag.Bool("log-json", false, "emit logs as JSON objects instead of key=value text")
)

// flagNeeds is brokerd's one table of flag dependencies: each row's flags
// tune the feature its needs flag turns on, so setting one explicitly
// while that feature is off is a contradiction brokerd refuses to start
// with. A conflict row is the reverse: the flags must not meet it on.
var flagNeeds = []struct {
	needs    string
	conflict bool
	flags    []string
}{
	{"log-dir", false, []string{"log-fsync", "log-retention", "log-segment-bytes"}},
	{"fabric", false, []string{"gossip-interval", "fail-after"}},
	// A fabric dials its own links, named by broker; -connect would add an
	// address-named second link to the same peer.
	{"fabric", true, []string{"connect"}},
	{"connect", false, []string{"link-retry", "link-retry-max"}},
	{"pub-rate", false, []string{"pub-burst"}},
	{"flight", false, []string{"trace-sample"}},
	// The availability ledger's rows ride the telemetry snapshot, so its
	// SLO and flap flags need telemetry too.
	{"telemetry-interval", false, []string{"telemetry-retention", "alert-rules",
		"slo-target", "slo-window", "burn-alert", "flap-transitions", "flap-window", "flap-hold"}},
}

// checkFlags applies flagNeeds to the flags fs was parsed with.
func checkFlags(fs *flag.FlagSet) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, d := range flagNeeds {
		for _, name := range d.flags {
			switch on := flagOn(fs.Lookup(d.needs)); {
			case !set[name]:
			case d.conflict && on:
				return fmt.Errorf("-%s cannot be combined with -%s", name, d.needs)
			case !d.conflict && !on:
				return fmt.Errorf("-%s has no effect: -%s leaves its feature off", name, d.needs)
			}
		}
	}
	return nil
}

// flagOn reports whether a feature-switching flag is on: true, non-empty
// or positive.
func flagOn(f *flag.Flag) bool {
	switch v := f.Value.(flag.Getter).Get().(type) {
	case bool:
		return v
	case string:
		return v != ""
	case int:
		return v > 0
	case float64:
		return v > 0
	case time.Duration:
		return v > 0
	}
	return false
}

func main() {
	flag.Parse()
	if err := checkFlags(flag.CommandLine); err != nil {
		fail("%v", err)
	}
	if *identityPath == "" {
		fail("missing -identity (issue one with: ca -dir %s issue broker-1)", *pki)
	}
	verifier, err := credential.LoadVerifier(*pki)
	if err != nil {
		fail("loading trust anchor: %v", err)
	}
	id, err := credential.LoadIdentity(*identityPath)
	if err != nil {
		fail("loading identity: %v", err)
	}
	tr, err := transport.New(*transportName)
	if err != nil {
		fail("%v", err)
	}

	// Token validation resolves trace topics through the TDNs, caching
	// aggressively; the hosting broker also primes the cache from
	// registrations.
	var topics core.AdResolver = core.ResolverFunc(func(ident.UUID) (*tdn.Advertisement, error) {
		return nil, core.ErrUnknownTopic
	})
	if addrs := splitCSV(*tdnAddrs); len(addrs) > 0 {
		cl, err := tdn.NewClient(tr, addrs...)
		if err != nil {
			fail("tdn client: %v", err)
		}
		topics = core.TDNResolver(cl)
	} else {
		fmt.Fprintln(os.Stderr, "brokerd: warning: no -tdn given; only locally registered topics validate")
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	log := obs.NewLogger(os.Stderr, level, *logJSON)
	brokerName := *name
	if brokerName == "" {
		brokerName = string(id.Credential.Entity)
	}
	// The verified-token cache memoizes §4.3 verifications per token
	// byte string; -guard-cache=0 runs every trace through the full
	// pipeline (byte-for-byte seed behaviour).
	var tokenCache *core.TokenCache
	if *guardCache > 0 {
		tokenCache = core.NewTokenCache(*guardCache)
	}
	// The availability ledger folds every hosted entity's trace stream
	// into per-entity uptime state; the broker carries its rows in every
	// telemetry snapshot and serves them on /avail.
	acfg := avail.Config{
		Registry:        obs.Default,
		Log:             log,
		BurnAlert:       *burnAlert,
		FlapTransitions: *flapCount,
		FlapWindow:      *flapWindow,
		FlapHold:        *flapHold,
	}
	if slo := (avail.SLO{Target: *sloTarget, Window: *sloWindow}); slo.Valid() {
		acfg.DefaultSLO = slo
	}
	// The telemetry plane: retention and alert rules parse up front so a
	// typo fails the boot, not the first tick.
	var telemOpts timeseries.Options
	if *telemRetain != "" {
		if telemOpts, err = timeseries.ParseRetention(*telemRetain); err != nil {
			fail("%v", err)
		}
	}
	rules, err := timeseries.ParseRules(*alertRules)
	if err != nil {
		fail("%v", err)
	}
	cfg := node.Config{
		Name:         brokerName,
		Clock:        clock.Real{},
		Log:          log,
		FlightEvents: *flightEvents,
		FlightSample: *traceSample,
		Transport:    tr,
		Listen:       *listen,
		Guard:        core.GuardConfig{Resolver: core.NewCachingResolver(topics), Verifier: verifier, Cache: tokenCache},
		Broker: broker.Config{
			EgressQueue:          *egressQueue,
			SlowConsumerDeadline: *slowDeadline,
			PublishRate:          *pubRate,
			PublishBurst:         *pubBurst,
			QuarantineDuration:   *quarantine,
			BatchBytes:           *batchBytes,
		},
		Manager: core.BrokerConfig{
			Identity:          id,
			Avail:             acfg,
			TelemetryInterval: *telemEvery,
			TelemetryOptions:  telemOpts,
			TelemetryRules:    rules,
		},
		// The -connect link re-dials under exponential backoff and re-syncs
		// subscriptions when the peer restarts; the explicit factor keeps it
		// persistent even when both delays are 0 (the backoff defaults).
		Connect:      *connect,
		ConnectRetry: backoff.Config{Initial: *linkRetry, Max: *linkRetryMax, Factor: backoff.DefaultFactor},
	}
	if *sessionKeys {
		// The guard holds the negotiated §6.3 key store and verifies session
		// tags; the trace manager turns session keys on because of it.
		cfg.Guard.Sessions = core.NewSessionStore(0)
	}
	if *logDir != "" {
		// The durable trace log persists constrained trace derivatives
		// before fan-out and serves ack'd replay (PROTOCOL.md §3.8).
		fsync, ok := durable.ParseFsyncPolicy(*logFsync)
		if !ok {
			fail("bad -log-fsync %q (want batch, always or never)", *logFsync)
		}
		cfg.LogDir = *logDir
		cfg.Durable = durable.Options{SegmentBytes: *logSegBytes, Retention: *logRetention, Fsync: fsync}
	}
	// Under -fabric the fabric owns directory registration: it refreshes
	// every gossip interval and carries the ownership-table epoch.
	var dirClient *brokerdir.Client
	if *dirAddr != "" {
		dirClient = brokerdir.NewClient(tr, *dirAddr)
	}
	if *fabricOn {
		cfg.Fabric = &fabric.Config{
			TransportName:  *transportName,
			Dir:            dirClient,
			GossipInterval: *gossipEvery,
			FailAfter:      *failAfter,
		}
	}
	n, err := node.Start(cfg)
	if errors.Is(err, durable.ErrTampered) {
		// Recovery verifies every sealed segment's hash chain; a tampered
		// or truncated log is refused outright rather than silently served.
		fail("durable log refused: %v\nthe log at %s fails hash-chain verification; restore it from a clean copy or move it aside", err, *logDir)
	}
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("brokerd: %s serving on %s (%s)\n", brokerName, n.Addr, *transportName)
	if n.Fabric != nil {
		fmt.Printf("brokerd: %s joined fabric (gossip=%s)\n", brokerName, *gossipEvery)
	}
	if *adminAddr != "" {
		go serveAdmin(*adminAddr, brokerName, n, tokenCache)
	}

	// Register with the broker directory and refresh periodically so
	// entities can discover a valid broker (§3.2 / Ref [3]).
	register := dirClient != nil && n.Fabric == nil
	if register {
		if err := dirClient.Register(brokerName, *transportName, n.Addr, float64(n.Broker.PeerCount())); err != nil {
			fail("directory registration: %v", err)
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	// SIGQUIT dumps the flight recorder to stderr without stopping the
	// broker — the post-incident "what did you decide recently" escape
	// hatch when no admin endpoint is up.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	ticker := time.NewTicker(10 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if register {
				_ = dirClient.Register(brokerName, *transportName, n.Addr, float64(n.Broker.PeerCount()))
			}
		case <-quit:
			if n.Flight == nil {
				fmt.Fprintln(os.Stderr, "brokerd: flight recorder disabled (-flight 0)")
				continue
			}
			fmt.Fprintf(os.Stderr, "brokerd: flight dump (SIGQUIT)\n")
			_ = n.Flight.WriteJSON(os.Stderr, obs.FlightFilter{})
		case <-stop:
			fmt.Println("brokerd: shutting down")
			if register {
				_ = dirClient.Deregister(brokerName)
			}
			// A graceful fabric leave gossips the tombstone and hands the
			// durable tail to the new owners before the broker stops.
			n.Close()
			if *metricsDump {
				obs.Default.WriteText(os.Stdout)
			}
			return
		}
	}
}

// serveAdmin exposes operational state over HTTP: /metrics (process-wide
// registry, text or JSON — every count, under its registry name),
// /debug/pprof, /trace (flight-recorder events for tracectl), /avail,
// /timeseries, and /healthz, enriched with the point-in-time values no
// counter holds.
func serveAdmin(addr, name string, n *node.Node, tokenCache *core.TokenCache) {
	b, mgr := n.Broker, n.Manager
	mux := obs.NewAdminMux(obs.Default, func() map[string]any {
		h := b.Health()
		out := map[string]any{
			"broker":            name,
			"peers":             len(h.Peers),
			"subscriptions":     h.Subscriptions,
			"sessions":          mgr.SessionCount(),
			"flightHead":        h.FlightHead,
			"guardCacheEntries": tokenCache.Len(),
		}
		if h.FabricMembers > 0 {
			out["fabric"] = map[string]any{
				"epoch":         h.FabricEpoch,
				"members":       h.FabricMembers,
				"ownedPerMille": h.FabricOwnedPerMille,
			}
		}
		if n.Store != nil {
			out["durable"] = n.Store.Stats()
		}
		return out
	})
	mux.Handle("/trace", obs.FlightHandler(n.Flight))
	mux.Handle("/avail", avail.Handler(mgr.Avail(), name))
	if ts := mgr.Telemetry(); ts != nil {
		mux.Handle("/timeseries", timeseries.Handler(ts))
	}
	fmt.Printf("brokerd: admin endpoint on http://%s/metrics\n", addr)
	if err := obs.ServeAdmin(addr, mux); err != nil {
		fmt.Fprintf(os.Stderr, "brokerd: admin endpoint: %v\n", err)
	}
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "brokerd: "+format+"\n", args...)
	os.Exit(1)
}
