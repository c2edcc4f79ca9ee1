// Package entitytrace's root-level benchmarks regenerate the paper's
// evaluation (§6) as testing.B benchmarks, one family per table/figure:
//
//	Table 3 (routing blocks)  BenchmarkTraceRouting{TCP,UDP}{Auth,AuthSec}
//	Table 3 (crypto block)    BenchmarkToken*, Benchmark{Sign,Verify,Encrypt,Decrypt}Trace*
//	Table 3 (key dist block)  BenchmarkKeyDistribution
//	Figure 4                  BenchmarkTrackerScaling
//	Figure 5                  BenchmarkSigningOptimization
//	Table 4                   BenchmarkTracedEntityScaling
//	§1 baseline               BenchmarkBaselineAllToAll, BenchmarkGossipRound
//
// Run with: go test -bench=. -benchmem
package entitytrace

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"entitytrace/internal/baseline"
	"entitytrace/internal/broker"
	"entitytrace/internal/core"
	"entitytrace/internal/credential"
	"entitytrace/internal/harness"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/obs/timeseries"
	"entitytrace/internal/secure"
	"entitytrace/internal/tdn"
	"entitytrace/internal/token"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

const benchTimeout = 30 * time.Second

// --- Table 3: trace routing overhead --------------------------------------

func benchTraceRouting(b *testing.B, transportName string, security bool) {
	for _, hops := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			tb, err := harness.New(harness.Options{
				Brokers:   hops,
				Transport: transportName,
				Security:  security,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer tb.Close()
			ent, err := tb.StartEntity("bench-entity", 0)
			if err != nil {
				b.Fatal(err)
			}
			h, err := tb.StartTracker("bench-tracker", hops-1, "bench-entity",
				topic.NewClassSet(topic.ClassStateTransitions))
			if err != nil {
				b.Fatal(err)
			}
			if security {
				if err := h.AwaitTraceKey(benchTimeout); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := harness.MeasureStateTraces(ent, h, 2, benchTimeout); err != nil {
				b.Fatal(err)
			}
			harness.DrainEvents(h.Events)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := harness.MeasureStateTraces(ent, h, 1, benchTimeout); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTraceRoutingTCPAuth(b *testing.B)    { benchTraceRouting(b, "tcp", false) }
func BenchmarkTraceRoutingTCPAuthSec(b *testing.B) { benchTraceRouting(b, "tcp", true) }
func BenchmarkTraceRoutingUDPAuth(b *testing.B)    { benchTraceRouting(b, "udp", false) }
func BenchmarkTraceRoutingUDPAuthSec(b *testing.B) { benchTraceRouting(b, "udp", true) }

// --- Table 3: security and authorization costs ----------------------------

func benchCryptoFixture(b *testing.B) (*secure.Signer, *secure.KeyPair, *secure.SymmetricKey, []byte) {
	b.Helper()
	pair, err := secure.GenerateKeyPair(secure.PaperRSABits)
	if err != nil {
		b.Fatal(err)
	}
	signer, err := secure.NewSigner(pair.Private, secure.SHA1)
	if err != nil {
		b.Fatal(err)
	}
	key, err := secure.NewSymmetricKey(secure.PaperAESKeyBytes)
	if err != nil {
		b.Fatal(err)
	}
	payload, err := secure.RandomBytes(256)
	if err != nil {
		b.Fatal(err)
	}
	return signer, pair, key, payload
}

func BenchmarkTokenGenerationAndSigning(b *testing.B) {
	signer, _, _, _ := benchCryptoFixture(b)
	tt := ident.NewUUID()
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := token.Grant("bench", tt, token.RightPublish, time.Hour, now, signer, secure.PaperRSABits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyAuthorizationToken(b *testing.B) {
	signer, pair, _, _ := benchCryptoFixture(b)
	now := time.Now()
	del, err := token.Grant("bench", ident.NewUUID(), token.RightPublish, time.Hour, now, signer, secure.PaperRSABits)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := del.Token.Verify(pair.Public, now, token.DefaultClockSkew, token.RightPublish); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncryptTraceMessage(b *testing.B) {
	_, _, key, payload := benchCryptoFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Encrypt(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecryptTraceMessage(b *testing.B) {
	_, _, key, payload := benchCryptoFixture(b)
	ct, err := key.Encrypt(payload)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignTraceMessage(b *testing.B) {
	signer, _, _, payload := benchCryptoFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signer.Sign(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifySignatureInTraceMessage(b *testing.B) {
	signer, pair, _, payload := benchCryptoFixture(b)
	sig, err := signer.Sign(payload)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := secure.Verify(pair.Public, secure.SHA1, payload, sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignEncryptedTraceMessage(b *testing.B) {
	signer, _, key, payload := benchCryptoFixture(b)
	ct, err := key.Encrypt(payload)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signer.Sign(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifySignatureInEncryptedTraceMessage(b *testing.B) {
	signer, pair, key, payload := benchCryptoFixture(b)
	ct, err := key.Encrypt(payload)
	if err != nil {
		b.Fatal(err)
	}
	sig, err := signer.Sign(ct)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := secure.Verify(pair.Public, secure.SHA1, ct, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 3: key distribution overhead ------------------------------------

func BenchmarkKeyDistribution(b *testing.B) {
	for _, hops := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			tb, err := harness.New(harness.Options{Brokers: hops, Transport: "tcp", Security: true})
			if err != nil {
				b.Fatal(err)
			}
			defer tb.Close()
			if _, err := tb.StartEntity("kd-entity", 0); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := tb.StartTracker(fmt.Sprintf("kd-%d", i), hops-1, "kd-entity",
					topic.NewClassSet(topic.ClassChangeNotifications))
				if err != nil {
					b.Fatal(err)
				}
				if err := h.AwaitTraceKey(benchTimeout); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				h.Watch.Stop()
				b.StartTimer()
			}
		})
	}
}

// --- Figure 4: tracker scaling ---------------------------------------------

func BenchmarkTrackerScaling(b *testing.B) {
	for _, trackers := range []int{10, 30} {
		b.Run(fmt.Sprintf("trackers=%d", trackers), func(b *testing.B) {
			tb, err := harness.New(harness.Options{Brokers: 2, Transport: "tcp"})
			if err != nil {
				b.Fatal(err)
			}
			defer tb.Close()
			ent, err := tb.StartEntity("fig4-entity", 0)
			if err != nil {
				b.Fatal(err)
			}
			measuring, err := tb.StartTracker("fig4-measuring", 1, "fig4-entity",
				topic.NewClassSet(topic.ClassStateTransitions))
			if err != nil {
				b.Fatal(err)
			}
			for i := 1; i < trackers; i++ {
				if _, err := tb.StartTracker(fmt.Sprintf("fig4-load-%d", i), i%2, "fig4-entity",
					topic.NewClassSet(topic.ClassStateTransitions)); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := harness.MeasureStateTraces(ent, measuring, 2, benchTimeout); err != nil {
				b.Fatal(err)
			}
			harness.DrainEvents(measuring.Events)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := harness.MeasureStateTraces(ent, measuring, 1, benchTimeout); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 5: signing-cost optimization -------------------------------------

func BenchmarkSigningOptimization(b *testing.B) {
	for _, mode := range []struct {
		name      string
		symmetric bool
	}{{"signed", false}, {"symmetric", true}} {
		b.Run(mode.name, func(b *testing.B) {
			tb, err := harness.New(harness.Options{Brokers: 2, Transport: "tcp", Symmetric: mode.symmetric})
			if err != nil {
				b.Fatal(err)
			}
			defer tb.Close()
			ent, err := tb.StartEntity("fig5-entity", 0)
			if err != nil {
				b.Fatal(err)
			}
			h, err := tb.StartTracker("fig5-tracker", 1, "fig5-entity",
				topic.NewClassSet(topic.ClassStateTransitions))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := harness.MeasureStateTraces(ent, h, 2, benchTimeout); err != nil {
				b.Fatal(err)
			}
			harness.DrainEvents(h.Events)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := harness.MeasureStateTraces(ent, h, 1, benchTimeout); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 4: traced-entity scaling ------------------------------------------

func BenchmarkTracedEntityScaling(b *testing.B) {
	for _, entities := range []int{10, 20, 30} {
		b.Run(fmt.Sprintf("entities=%d", entities), func(b *testing.B) {
			tb, err := harness.New(harness.Options{Brokers: 1, Transport: "tcp"})
			if err != nil {
				b.Fatal(err)
			}
			defer tb.Close()
			type pair struct {
				ent *core.TracedEntity
				h   *harness.TrackerHandle
			}
			pairs := make([]pair, 0, entities)
			for i := 0; i < entities; i++ {
				name := fmt.Sprintf("t4-entity-%d", i)
				ent, err := tb.StartEntity(name, 0)
				if err != nil {
					b.Fatal(err)
				}
				h, err := tb.StartTracker(fmt.Sprintf("t4-tracker-%d", i), 0, name,
					topic.NewClassSet(topic.ClassStateTransitions))
				if err != nil {
					b.Fatal(err)
				}
				pairs = append(pairs, pair{ent, h})
			}
			if _, err := harness.MeasureStateTraces(pairs[0].ent, pairs[0].h, 2, benchTimeout); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				harness.DrainEvents(p.h.Events)
				if _, err := harness.MeasureStateTraces(p.ent, p.h, 1, benchTimeout); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §1 baselines -------------------------------------------------------------

func BenchmarkBaselineAllToAll(b *testing.B) {
	for _, n := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			s, err := baseline.NewAllToAll(baseline.AllToAllConfig{N: n, HeartbeatEvery: 1, FailAfter: 3})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Tick()
			}
			b.ReportMetric(float64(baseline.MessagesPerPeriod(n)), "msgs/period")
		})
	}
}

func BenchmarkGossipRound(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			g, err := baseline.NewGossip(baseline.GossipConfig{N: n, Fanout: 3, FailTicks: 5, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Round()
			}
		})
	}
}

// --- micro: message envelope codec ---------------------------------------------

func BenchmarkEnvelopeMarshal(b *testing.B) {
	env := message.New(message.TraceAllsWell,
		topic.AllUpdates(ident.NewUUID()), "bench-entity", make([]byte, 256))
	env.Token = make([]byte, 300)
	env.Signature = make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = env.Marshal()
	}
}

func BenchmarkEnvelopeUnmarshal(b *testing.B) {
	env := message.New(message.TraceAllsWell,
		topic.AllUpdates(ident.NewUUID()), "bench-entity", make([]byte, 256))
	env.Token = make([]byte, 300)
	env.Signature = make([]byte, 128)
	wire := env.Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := message.Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations ------------------------------------------------------------------

// BenchmarkTraceVerification measures the full per-message §4.3 check a
// routing broker performs on every trace: resolve the advertisement
// (cached), verify its chain, verify the token, verify the delegate
// signature. This is the marginal cost of the paper's authorization on
// the routing path.
func BenchmarkTraceVerification(b *testing.B) {
	env, tt, resolver, verifier := benchVerificationFixture(b)
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.VerifyTrace(env, tt, resolver, verifier, now, token.DefaultClockSkew); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuardPassthrough measures the guard's cost on non-trace
// topics (ordinary pub/sub traffic): it must be near zero.
func BenchmarkGuardPassthrough(b *testing.B) {
	_, _, resolver, verifier := benchVerificationFixture(b)
	guard := core.NewGuard(core.GuardConfig{Resolver: resolver, Verifier: verifier}).Admit
	env := message.New(message.TypeData, topic.MustParse("/ordinary/application/topic"), "app", make([]byte, 256))
	p := topic.EntityPrincipal("app")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := guard(env, p, time.Now(), false); err != nil {
			b.Fatal(err)
		}
	}
}

func benchVerificationFixture(b *testing.B) (*message.Envelope, ident.UUID, core.AdResolver, *credential.Verifier) {
	b.Helper()
	ca, err := credential.NewAuthority("bench-ca", credential.WithKeyBits(secure.PaperRSABits))
	if err != nil {
		b.Fatal(err)
	}
	verifier, err := credential.NewVerifier(ca.CACertificate())
	if err != nil {
		b.Fatal(err)
	}
	tdnID, err := ca.Issue("bench-tdn")
	if err != nil {
		b.Fatal(err)
	}
	node, err := tdn.NewNode(tdnID, verifier)
	if err != nil {
		b.Fatal(err)
	}
	owner, err := ca.Issue("bench-owner")
	if err != nil {
		b.Fatal(err)
	}
	signer, err := owner.Signer(secure.SHA1)
	if err != nil {
		b.Fatal(err)
	}
	req := &tdn.CreateRequest{
		Owner:      "bench-owner",
		OwnerCert:  owner.Credential.Cert,
		Descriptor: "Availability/Traces/bench-owner",
		AllowAny:   true,
		RequestID:  ident.NewRequestID(),
	}
	if err := req.Sign(signer); err != nil {
		b.Fatal(err)
	}
	ad, err := node.CreateTopic(req)
	if err != nil {
		b.Fatal(err)
	}
	del, err := token.Grant("bench-owner", ad.TopicID, token.RightPublish, time.Hour, time.Now(), signer, secure.PaperRSABits)
	if err != nil {
		b.Fatal(err)
	}
	delegate, err := secure.NewSigner(del.PrivateKey, core.TraceSigHash)
	if err != nil {
		b.Fatal(err)
	}
	te := &message.TraceEvent{Entity: "bench-owner", TraceTopic: ad.TopicID, Detail: "bench"}
	env := message.New(message.TraceAllsWell, topic.AllUpdates(ad.TopicID), "", te.Marshal())
	env.Token = del.Token.Marshal()
	if err := env.Sign(delegate); err != nil {
		b.Fatal(err)
	}
	resolver := core.NewCachingResolver(core.NodeResolver(node))
	return env, ad.TopicID, resolver, verifier
}

// --- substrate micro-benchmarks ------------------------------------------------

// BenchmarkBrokerRouting measures raw pub/sub routing (no crypto): one
// publisher, one subscriber, a single broker node.
func BenchmarkBrokerRouting(b *testing.B) {
	tr := transport.NewInproc()
	bk := broker.New(broker.Config{Name: "bench"})
	l, err := tr.Listen("")
	if err != nil {
		b.Fatal(err)
	}
	bk.Serve(l)
	defer bk.Close()
	sub, err := broker.Connect(tr, l.Addr(), "sub")
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	pub, err := broker.Connect(tr, l.Addr(), "pub")
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	got := make(chan struct{}, 1024)
	tp := topic.MustParse("/bench/routing")
	if err := sub.Subscribe(tp, func(*message.Envelope) { got <- struct{}{} }); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Publish(message.New(message.TypeData, tp, "pub", payload)); err != nil {
			b.Fatal(err)
		}
		<-got
	}
}

// BenchmarkTransportRoundTrip measures one frame round trip per
// transport.
func BenchmarkTransportRoundTrip(b *testing.B) {
	for _, name := range []string{"tcp", "udp", "inproc"} {
		b.Run(name, func(b *testing.B) {
			var tr transport.Transport
			var addr string
			if name == "inproc" {
				ip := transport.NewInproc()
				tr = ip
				l, err := ip.Listen("")
				if err != nil {
					b.Fatal(err)
				}
				addr = l.Addr()
				go echo(l)
			} else {
				var err error
				tr, err = transport.New(name)
				if err != nil {
					b.Fatal(err)
				}
				l, err := tr.Listen("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				addr = l.Addr()
				go echo(l)
			}
			c, err := tr.Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			frame := make([]byte, 512)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(frame); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func echo(l transport.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go func(c transport.Conn) {
			defer c.Close()
			for {
				f, err := c.Recv()
				if err != nil {
					return
				}
				if err := c.Send(f); err != nil {
					return
				}
			}
		}(c)
	}
}

// --- BENCH_obs.json export ------------------------------------------------------

// TestExportObsBench records sign/verify/publish latency distributions
// through the internal/obs histograms and writes them to BENCH_obs.json,
// so the observability layer's view of the paper's crypto costs (§6,
// Table 3) is archived alongside the testing.B numbers.
func TestExportObsBench(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping BENCH_obs.json export in -short mode")
	}
	// Tests must not write tracked files: a bare `go test ./...` skips
	// the export, its Makefile recipe opts in.
	if os.Getenv("OBS_EXPORT") == "" {
		t.Skip("set OBS_EXPORT=1 (make telemetry) to run the benchmark export")
	}
	reg := obs.NewRegistry()
	hSign := reg.Histogram("bench_sign_ms", nil)
	hVerify := reg.Histogram("bench_verify_ms", nil)
	hPublish := reg.Histogram("bench_publish_roundtrip_ms", nil)

	pair, err := secure.GenerateKeyPair(secure.PaperRSABits)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := secure.NewSigner(pair.Private, secure.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)

	const cryptoRounds = 50
	sigs := make([][]byte, 0, cryptoRounds)
	for i := 0; i < cryptoRounds; i++ {
		start := time.Now()
		sig, err := signer.Sign(payload)
		if err != nil {
			t.Fatal(err)
		}
		hSign.ObserveDuration(time.Since(start))
		sigs = append(sigs, sig)
	}
	for _, sig := range sigs {
		start := time.Now()
		if err := secure.Verify(pair.Public, secure.SHA1, payload, sig); err != nil {
			t.Fatal(err)
		}
		hVerify.ObserveDuration(time.Since(start))
	}

	// Publish round trips through a single inproc broker (no crypto on
	// the path), isolating the substrate's routing latency.
	tr := transport.NewInproc()
	bk := broker.New(broker.Config{Name: "obs-bench"})
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	bk.Serve(l)
	defer bk.Close()
	sub, err := broker.Connect(tr, l.Addr(), "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := broker.Connect(tr, l.Addr(), "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	got := make(chan struct{}, 64)
	tp := topic.MustParse("/bench/obs")
	if err := sub.Subscribe(tp, func(*message.Envelope) { got <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	const publishRounds = 200
	for i := 0; i < publishRounds; i++ {
		start := time.Now()
		if err := pub.Publish(message.New(message.TypeData, tp, "pub", payload)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(benchTimeout):
			t.Fatal("publish round trip timed out")
		}
		hPublish.ObserveDuration(time.Since(start))
	}

	// Telemetry-plane overhead (§3.10 acceptance): the same single-broker
	// 4-subscriber fan-out measured with telemetry off and with it on at
	// an aggressive 5 ms cadence plus an armed-but-quiet alert rule, so
	// the sampling, store-append and rule-evaluation costs all sit on the
	// measured broker. Interleaved best-of-N trials keep scheduler noise
	// out of the comparison; telemetry-on must stay within 3% of off.
	const (
		fanSubs   = 4
		fanMsgs   = 10000
		fanTrials = 5
	)
	newFanoutRig := func(interval time.Duration, rules []timeseries.Rule) (func() float64, func()) {
		tb, err := harness.New(harness.Options{
			Brokers:           1,
			TelemetryInterval: interval,
			TelemetryRules:    rules,
			// Room for every in-flight frame of a trial, so no trial ever
			// sheds and both rigs deliver identical work.
			EgressQueue: fanSubs * fanMsgs,
		})
		if err != nil {
			t.Fatal(err)
		}
		var received atomic.Int64
		ftp := topic.MustParse("/bench/obs/fanout")
		var conns []*broker.Client
		for i := 0; i < fanSubs; i++ {
			s, err := broker.Connect(tb.Transport(), tb.Addrs[0], ident.EntityID(fmt.Sprintf("fan-sub-%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			conns = append(conns, s)
			if err := s.Subscribe(ftp, func(*message.Envelope) { received.Add(1) }); err != nil {
				t.Fatal(err)
			}
		}
		fp, err := broker.Connect(tb.Transport(), tb.Addrs[0], "fan-pub")
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, fp)
		trial := func() float64 {
			received.Store(0)
			start := time.Now()
			for i := 0; i < fanMsgs; i++ {
				if err := fp.Publish(message.New(message.TypeData, ftp, "fan-pub", payload)); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(benchTimeout)
			for received.Load() < fanSubs*fanMsgs {
				if time.Now().After(deadline) {
					t.Fatalf("fan-out trial stalled at %d/%d deliveries", received.Load(), fanSubs*fanMsgs)
				}
				time.Sleep(time.Millisecond)
			}
			return float64(fanSubs*fanMsgs) / time.Since(start).Seconds()
		}
		cleanup := func() {
			for _, c := range conns {
				c.Close()
			}
			tb.Close()
		}
		return trial, cleanup
	}
	quietRules, err := timeseries.ParseRules(
		"bench-quiet: broker_egress_queue_depth > 1000000 for 1s")
	if err != nil {
		t.Fatal(err)
	}
	offTrial, offCleanup := newFanoutRig(0, nil)
	defer offCleanup()
	onTrial, onCleanup := newFanoutRig(5*time.Millisecond, quietRules)
	defer onCleanup()
	offTrial() // warm both rigs outside the measured trials
	onTrial()
	// A single round's best-of-N can still land 3% apart on a noisy
	// shared CPU, so the gate re-measures: a genuine regression exceeds
	// the budget in every round, scheduler noise does not.
	var offBest, onBest, overheadPct float64
	withinBudget := false
	for round := 0; round < 3 && !withinBudget; round++ {
		offBest, onBest = 0, 0
		for i := 0; i < fanTrials; i++ {
			if v := offTrial(); v > offBest {
				offBest = v
			}
			if v := onTrial(); v > onBest {
				onBest = v
			}
		}
		overheadPct = (offBest - onBest) / offBest * 100
		withinBudget = onBest >= offBest*0.97
	}
	if !withinBudget {
		t.Fatalf("telemetry-on fan-out %.0f/s is %.1f%% below telemetry-off %.0f/s (budget 3%%) in every round",
			onBest, overheadPct, offBest)
	}

	out := struct {
		Description string                `json:"description"`
		RSABits     int                   `json:"rsa_bits"`
		PayloadSize int                   `json:"payload_bytes"`
		SignMs      obs.HistogramSnapshot `json:"sign_ms"`
		VerifyMs    obs.HistogramSnapshot `json:"verify_ms"`
		PublishMs   obs.HistogramSnapshot `json:"publish_roundtrip_ms"`
		Telemetry   struct {
			IntervalMs    float64 `json:"interval_ms"`
			FanoutSubs    int     `json:"fanout_subscribers"`
			OffPerSec     float64 `json:"fanout_off_per_sec"`
			OnPerSec      float64 `json:"fanout_on_per_sec"`
			OverheadPct   float64 `json:"overhead_pct"`
			BudgetPct     float64 `json:"budget_pct"`
			TrialsPerMode int     `json:"trials_per_mode"`
		} `json:"telemetry_overhead"`
		Registry obs.Snapshot `json:"registry"`
	}{
		Description: "sign/verify (RSA-SHA1, paper key size) and inproc publish round-trip latency distributions, recorded through internal/obs histograms",
		RSABits:     secure.PaperRSABits,
		PayloadSize: len(payload),
		SignMs:      hSign.Snapshot(),
		VerifyMs:    hVerify.Snapshot(),
		PublishMs:   hPublish.Snapshot(),
		Registry:    reg.Snapshot(),
	}
	out.Telemetry.IntervalMs = 5
	out.Telemetry.FanoutSubs = fanSubs
	out.Telemetry.OffPerSec = offBest
	out.Telemetry.OnPerSec = onBest
	out.Telemetry.OverheadPct = overheadPct
	out.Telemetry.BudgetPct = 3
	out.Telemetry.TrialsPerMode = fanTrials
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_obs.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_obs.json (sign p50=%.3fms verify p50=%.3fms publish p50=%.3fms telemetry overhead=%.2f%%)",
		out.SignMs.P50, out.VerifyMs.P50, out.PublishMs.P50, overheadPct)
}

// BenchmarkSealOpen measures the hybrid envelope used for registration
// responses and key distribution (§3.2, §5.1).
func BenchmarkSealOpen(b *testing.B) {
	pair, err := secure.GenerateKeyPair(secure.PaperRSABits)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := secure.Seal(pair.Public, payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sp.Open(pair.Private); err != nil {
			b.Fatal(err)
		}
	}
}
