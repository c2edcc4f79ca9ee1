// Command tdnd runs a Topic Discovery Node (§2.2, §3.1): it creates
// trace topics, stores signed advertisements, answers credential-gated
// discovery queries, and replicates advertisements to peer TDNs.
//
//	tdnd -pki pki -identity pki/tdn-1.pem -listen 127.0.0.1:7000 [-peer host:port]...
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"entitytrace/internal/credential"
	"entitytrace/internal/obs"
	"entitytrace/internal/obs/timeseries"
	"entitytrace/internal/tdn"
	"entitytrace/internal/transport"
)

func main() {
	var (
		pki           = flag.String("pki", "pki", "PKI directory (trust anchor)")
		identityPath  = flag.String("identity", "", "PEM identity file for this TDN")
		listen        = flag.String("listen", "127.0.0.1:7000", "listen address")
		transportName = flag.String("transport", "tcp", "transport: tcp or udp")
		peers         = flag.String("peers", "", "comma-separated peer TDN addresses for replication")
		dataDir       = flag.String("data", "", "directory for durable advertisement storage (empty = memory only)")
		sweepEvery    = flag.Duration("sweep", time.Minute, "expired-advertisement sweep interval")
		adminAddr     = flag.String("admin", "", "HTTP admin endpoint (e.g. 127.0.0.1:7090) serving /metrics, /healthz and /debug/pprof")
		telemEvery    = flag.Duration("telemetry-interval", time.Second, "registry sampling period for the /timeseries store (0 disables)")
		telemRetain   = flag.String("telemetry-retention", "", "time-series retention as fine@step/coarse@step, e.g. 15m@1s/2h@15s (empty keeps the default)")
		metricsDump   = flag.Bool("metrics", false, "dump process metrics (counters, histograms) to stdout at exit")
		verbose       = flag.Bool("v", false, "log at debug level instead of info")
		logJSON       = flag.Bool("log-json", false, "emit logs as JSON objects instead of key=value text")
	)
	flag.Parse()
	if *identityPath == "" {
		fail("missing -identity (issue one with: ca -dir %s issue tdn-1)", *pki)
	}
	verifier, err := credential.LoadVerifier(*pki)
	if err != nil {
		fail("loading trust anchor: %v", err)
	}
	id, err := credential.LoadIdentity(*identityPath)
	if err != nil {
		fail("loading identity: %v", err)
	}
	node, err := tdn.NewNode(id, verifier)
	if err != nil {
		fail("creating node: %v", err)
	}
	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	node.SetLogger(obs.NewLogger(os.Stderr, level, *logJSON))
	if *dataDir != "" {
		restored, err := node.EnableStorage(*dataDir)
		if err != nil {
			fail("enabling storage: %v", err)
		}
		fmt.Printf("tdnd: restored %d advertisements from %s\n", restored, *dataDir)
	}
	tr, err := transport.New(*transportName)
	if err != nil {
		fail("%v", err)
	}
	for _, peer := range splitCSV(*peers) {
		node.AddPeer(tdn.NewRemoteReplicator(tr, peer))
	}
	l, err := tr.Listen(*listen)
	if err != nil {
		fail("listen: %v", err)
	}
	srv := tdn.NewServer(node)
	srv.Serve(l)
	fmt.Printf("tdnd: %s serving on %s (%s), %d peers\n", node.Name(), l.Addr(), *transportName, len(splitCSV(*peers)))
	if *adminAddr != "" {
		mux := obs.NewAdminMux(obs.Default, func() map[string]any {
			return map[string]any{
				"tdn":            node.Name(),
				"advertisements": node.Size(),
			}
		})
		sampler, err := timeseries.MountRegistry(mux, obs.Default, *telemEvery, *telemRetain)
		if err != nil {
			fail("%v", err)
		}
		if sampler != nil {
			defer sampler.Stop()
		}
		go func() {
			fmt.Printf("tdnd: admin endpoint on http://%s/metrics\n", *adminAddr)
			if err := obs.ServeAdmin(*adminAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "tdnd: admin endpoint: %v\n", err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(*sweepEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if pruned := node.Sweep(); pruned > 0 {
				fmt.Printf("tdnd: pruned %d expired advertisements\n", pruned)
			}
		case <-stop:
			fmt.Println("tdnd: shutting down")
			srv.Close()
			if *metricsDump {
				obs.Default.WriteText(os.Stdout)
			}
			return
		}
	}
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tdnd: "+format+"\n", args...)
	os.Exit(1)
}
