package main

import (
	"crypto/rand"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"entitytrace/internal/avail"
	"entitytrace/internal/broker"
	"entitytrace/internal/core"
	"entitytrace/internal/credential"
	"entitytrace/internal/durable"
	"entitytrace/internal/fabric"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/secure"
	"entitytrace/internal/tdn"
	"entitytrace/internal/token"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// timeCall returns the median nanoseconds per call of f: the iteration
// count is grown until one batch lasts 2 ms, then 9 batches are timed.
// Medians over batches shrug off a preempted batch on a shared host.
func timeCall(f func()) float64 {
	batch := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return time.Since(start)
	}
	n := 1
	for batch(n) < 2*time.Millisecond && n < 1<<22 {
		n *= 2
	}
	per := make([]float64, 9)
	for i := range per {
		per[i] = float64(batch(n)) / float64(n)
	}
	return median(per)
}

// traceFixture is one trace shaped like the workloads' (1024-bit keys,
// a load report in a trace event, the token a delegation issues),
// authenticated both ways, with everything a verifier needs.
type traceFixture struct {
	verifier  *credential.Verifier
	resolver  core.AdResolver
	topic     ident.UUID
	delegate  *secure.Signer
	rsaEnv    *message.Envelope // token + delegate RSA signature
	tagEnv    *message.Envelope // session tag
	key       *secure.SessionKey
	sessions  *core.SessionStore
	signBytes []byte
}

func newTraceFixture() (*traceFixture, error) {
	const owner = "bench-calls-owner"
	fx := &traceFixture{}
	ca, err := credential.NewAuthority("bench-calls-ca", credential.WithKeyBits(secure.PaperRSABits))
	if err != nil {
		return nil, err
	}
	if fx.verifier, err = credential.NewVerifier(ca.CACertificate()); err != nil {
		return nil, err
	}
	tdnID, err := ca.Issue("bench-calls-tdn")
	if err != nil {
		return nil, err
	}
	node, err := tdn.NewNode(tdnID, fx.verifier)
	if err != nil {
		return nil, err
	}
	ownerID, err := ca.Issue(owner)
	if err != nil {
		return nil, err
	}
	ownerSigner, err := ownerID.Signer(secure.SHA1)
	if err != nil {
		return nil, err
	}
	req := &tdn.CreateRequest{
		Owner:      owner,
		OwnerCert:  ownerID.Credential.Cert,
		Descriptor: "Availability/Traces/" + owner,
		AllowAny:   true,
		RequestID:  ident.NewRequestID(),
	}
	if err := req.Sign(ownerSigner); err != nil {
		return nil, err
	}
	ad, err := node.CreateTopic(req)
	if err != nil {
		return nil, err
	}
	fx.topic = ad.TopicID
	fx.resolver = core.NewCachingResolver(core.NodeResolver(node))
	now := time.Now()
	del, err := token.Grant(owner, ad.TopicID, token.RightPublish, time.Hour, now, ownerSigner, secure.PaperRSABits)
	if err != nil {
		return nil, err
	}
	if fx.delegate, err = secure.NewSigner(del.PrivateKey, core.TraceSigHash); err != nil {
		return nil, err
	}
	load := &message.LoadReport{CPUPercent: 42, MemoryUsedBytes: 1 << 30, MemoryTotalBytes: 16 << 30, Workload: 0.5, At: now.UnixNano()}
	te := &message.TraceEvent{Entity: owner, TraceTopic: ad.TopicID, Detail: "cpu=42.0% workload=0.50", Body: load.Marshal()}
	newEnv := func() *message.Envelope {
		return message.New(message.TraceLoadInformation, topic.ForClass(ad.TopicID, topic.ClassLoad), "", te.Marshal())
	}
	fx.rsaEnv = newEnv()
	fx.rsaEnv.Token = del.Token.Marshal()
	if err := fx.rsaEnv.Sign(fx.delegate); err != nil {
		return nil, err
	}
	fx.signBytes = fx.rsaEnv.SigningBytes()
	// Spans ride outside the signature: five hops, like a 3-broker chain.
	fx.rsaEnv.StartSpan()
	for _, n := range []string{owner, "hb0", "hb0", "hb1", "hb2"} {
		fx.rsaEnv.AddHop(n, now)
	}

	var digest [32]byte
	if _, err := rand.Read(digest[:]); err != nil {
		return nil, err
	}
	params, err := secure.NewSessionParams(digest, now.Add(-time.Hour).UnixNano(), now.Add(time.Hour).UnixNano())
	if err != nil {
		return nil, err
	}
	if fx.key, err = params.Derive(ad.TopicID.String(), owner); err != nil {
		return nil, err
	}
	fx.sessions = core.NewSessionStore(0)
	fx.sessions.Install(ad.TopicID, fx.key)
	fx.tagEnv = newEnv()
	if err := fx.tagEnv.SignSession(fx.key); err != nil {
		return nil, err
	}
	return fx, nil
}

// callTimings times the public functions each layer's work goes
// through, in this otherwise idle process, and records them in res.
// Every timed call is checked once first: timing a failing call would
// measure the error path.
func callTimings(res *result, tmpDir string) error {
	fx, err := newTraceFixture()
	if err != nil {
		return fmt.Errorf("call fixture: %w", err)
	}
	now := time.Now()
	skew := token.DefaultClockSkew

	// secure: one RSA private-key and one public-key operation over the
	// signing bytes of a trace; one HMAC session tag each way.
	sig, err := fx.delegate.Sign(fx.signBytes)
	if err != nil {
		return err
	}
	if err := secure.Verify(fx.delegate.Public(), core.TraceSigHash, fx.signBytes, sig); err != nil {
		return err
	}
	res.set("secure.rsa_sign_us", timeCall(func() { _, _ = fx.delegate.Sign(fx.signBytes) })/1e3)
	res.set("secure.rsa_verify_us", timeCall(func() {
		_ = secure.Verify(fx.delegate.Public(), core.TraceSigHash, fx.signBytes, sig)
	})/1e3)
	if err := fx.tagEnv.VerifySessionTag(fx.key); err != nil {
		return err
	}
	res.set("secure.session_tag_sign_ns", timeCall(func() { _ = fx.tagEnv.SignSession(fx.key) }))
	res.set("secure.session_tag_verify_ns", timeCall(func() { _ = fx.tagEnv.VerifySessionTag(fx.key) }))

	// core: the guard's three verification paths.
	cache := core.NewTokenCache(0)
	if err := core.VerifyTrace(fx.rsaEnv, fx.topic, fx.resolver, fx.verifier, now, skew); err != nil {
		return fmt.Errorf("uncached guard verify: %w", err)
	}
	if err := core.VerifyTraceCached(fx.rsaEnv, fx.topic, fx.resolver, fx.verifier, now, skew, cache); err != nil {
		return fmt.Errorf("cached guard verify: %w", err)
	}
	if err := core.VerifyTraceSession(fx.tagEnv, fx.topic, fx.sessions, now, skew); err != nil {
		return fmt.Errorf("session guard verify: %w", err)
	}
	res.set("core.guard_verify_uncached_us", timeCall(func() {
		_ = core.VerifyTrace(fx.rsaEnv, fx.topic, fx.resolver, fx.verifier, now, skew)
	})/1e3)
	res.set("core.guard_verify_cached_us", timeCall(func() {
		_ = core.VerifyTraceCached(fx.rsaEnv, fx.topic, fx.resolver, fx.verifier, now, skew, cache)
	})/1e3)
	res.set("core.guard_session_verify_ns", timeCall(func() {
		_ = core.VerifyTraceSession(fx.tagEnv, fx.topic, fx.sessions, now, skew)
	}))

	// message: the codec on a session-tagged trace, as the batched
	// workloads carry it; the batch ingest path parses each envelope of
	// a frame with the zero-copy UnmarshalShared.
	env := fx.tagEnv.Clone()
	env.Span = fx.rsaEnv.Span.Clone()
	wire := env.Marshal()
	if _, err := message.Unmarshal(wire); err != nil {
		return err
	}
	res.set("message.marshal_ns", timeCall(func() { _ = env.Marshal() }))
	res.set("message.unmarshal_ns", timeCall(func() { _, _ = message.Unmarshal(wire) }))
	res.set("message.forward_frame_ns", timeCall(func() {
		frame := make([]byte, 1, 1+env.WireSize())
		_ = env.AppendWire(frame, env.TTL-1)
	}))
	res.set("message.batch_parse_ns_per_env", timeCall(func() { _, _ = message.UnmarshalShared(wire) }))

	if err := brokerRouteTiming(res, env); err != nil {
		return err
	}
	for _, name := range []string{"tcp", "inproc"} {
		us, err := roundTripMicros(name)
		if err != nil {
			return fmt.Errorf("%s round trip: %w", name, err)
		}
		res.set("transport."+name+"_roundtrip_us", us)
	}
	if err := durableTimings(res, tmpDir, wire); err != nil {
		return err
	}

	table := fabric.NewTable(1, "hb0", []string{"hb0", "hb1", "hb2", "hb3"}, 0, nil)
	ts := env.Topic.String()
	if _, _, sharded := table.Route(ts); !sharded {
		return fmt.Errorf("fabric table does not shard trace topic %s", ts)
	}
	res.set("fabric.route_ns", timeCall(func() { table.Route(ts) }))

	ledger := avail.New(avail.Config{})
	ob := avail.Observation{Entity: "bench-calls-owner", Kind: avail.KindUp, At: now, SeenAt: now}
	res.set("avail.observe_ns", timeCall(func() { ledger.Observe(ob) }))
	return nil
}

// brokerRouteTiming publishes through a bare in-process broker (no
// guard, one exact subscriber) and reports time and heap allocations
// per delivery.
func brokerRouteTiming(res *result, env *message.Envelope) error {
	tr := transport.NewInproc()
	bk := broker.New(broker.Config{Name: "bench-calls-route", EgressQueue: 16384})
	defer bk.Close()
	l, err := tr.Listen("")
	if err != nil {
		return err
	}
	bk.Serve(l)
	tp := topic.MustParse("/bench/calls/route")
	sub, err := broker.Connect(tr, l.Addr(), "bench-calls-sub")
	if err != nil {
		return err
	}
	defer sub.Close()
	var got atomic.Int64
	if err := sub.Subscribe(tp, func(*message.Envelope) { got.Add(1) }); err != nil {
		return err
	}
	pub, err := broker.Connect(tr, l.Addr(), "bench-calls-pub")
	if err != nil {
		return err
	}
	defer pub.Close()
	// window keeps the burst inside the egress queue: this times
	// routing, not shedding.
	const total, window = 20000, 4096
	round := func() (time.Duration, error) {
		got.Store(0)
		start := time.Now()
		deadline := start.Add(10 * time.Second)
		for i := 0; i < total; i++ {
			if err := pub.Publish(message.New(message.TypeData, tp, "bench-calls-pub", env.Payload)); err != nil {
				return 0, err
			}
			for int64(i)-got.Load() > window {
				runtime.Gosched()
			}
		}
		for got.Load() < total {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("bare broker delivered %d of %d", got.Load(), total)
			}
			runtime.Gosched()
		}
		return time.Since(start), nil
	}
	if _, err := round(); err != nil { // warm-up
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	per := make([]float64, 5)
	for i := range per {
		d, err := round()
		if err != nil {
			return err
		}
		per[i] = float64(d) / total
	}
	runtime.ReadMemStats(&after)
	res.set("broker.route_ns_per_delivery", median(per))
	res.set("broker.route_allocs_per_delivery", float64(after.Mallocs-before.Mallocs)/float64(total*len(per)))
	return nil
}

// roundTripMicros times one 256-byte frame out and back over the named
// transport against an echoing peer.
func roundTripMicros(name string) (float64, error) {
	var tr transport.Transport = transport.NewInproc()
	addr := ""
	if name != "inproc" {
		var err error
		if tr, err = transport.New(name); err != nil {
			return 0, err
		}
		addr = "127.0.0.1:0"
	}
	l, err := tr.Listen(addr)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			f, err := c.Recv()
			if err != nil || c.Send(f) != nil {
				return
			}
		}
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		return 0, err
	}
	frame := make([]byte, 256)
	var callErr error
	ns := timeCall(func() {
		if err := c.Send(frame); err != nil {
			callErr = err
			return
		}
		if _, err := c.Recv(); err != nil {
			callErr = err
		}
	})
	c.Close()
	<-echoed
	return ns / 1e3, callErr
}

// durableTimings appends trace-sized records one at a time and in
// 64-record groups, then reads them back the way a replay pump does.
func durableTimings(res *result, tmpDir string, record []byte) error {
	dir, err := os.MkdirTemp(tmpDir, "calls-durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := durable.Open(filepath.Join(dir, "log"), durable.Options{})
	if err != nil {
		return err
	}
	defer store.Close()
	const tp = "/bench/calls/durable"
	var callErr error
	res.set("durable.append_ns", timeCall(func() {
		if _, err := store.Append(tp, record); err != nil {
			callErr = err
		}
	}))
	group := make([][]byte, 64)
	for i := range group {
		group[i] = record
	}
	res.set("durable.append_batch_ns_per_record", timeCall(func() {
		if _, err := store.AppendBatch(tp, group); err != nil {
			callErr = err
		}
	})/float64(len(group)))
	if callErr != nil {
		return fmt.Errorf("durable append: %w", callErr)
	}
	// Replay: read the whole log back in pump-sized chunks.
	log := store.Get(tp)
	pass := func() (float64, error) {
		var n int
		start := time.Now()
		for from := log.Oldest(); from <= log.Head(); {
			recs, err := log.ReadFrom(from, 256, 1<<20)
			if err != nil {
				return 0, err
			}
			if len(recs) == 0 {
				return 0, fmt.Errorf("durable replay stopped at offset %d of %d", from, log.Head())
			}
			n += len(recs)
			from = recs[len(recs)-1].Offset + 1
		}
		return float64(time.Since(start)) / float64(n), nil
	}
	per := make([]float64, 5)
	for i := range per {
		if per[i], err = pass(); err != nil {
			return err
		}
	}
	res.set("durable.replay_ns_per_record", median(per))
	return callErr
}
