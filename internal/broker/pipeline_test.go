package broker

import (
	"bytes"
	"errors"
	"maps"
	"reflect"
	"strings"
	"testing"
	"time"

	"entitytrace/internal/clock"
	"entitytrace/internal/durable"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// The behaviour-preservation oracle for the one publish pipeline: the
// same envelope set crosses a fresh broker as frameEnvelope frames one
// by one, as one frameBatch, and as local Publish calls, with and
// without a durable store, under every plan the shard stage can hand
// out. Whatever the framing, the broker must make the same decisions.
//
// The harness is white-box and synchronous: peers are registered
// without an egress writer, so everything the pipeline enqueued is still
// sitting in their queues, in order, when the ingress peer's scripted
// read loop returns.

// stubSharding is a fixed ownership table: every derivative of the
// oracle's trace topic is sharded, owned by this broker when local is
// set and by "owner" otherwise.
type stubSharding struct{ local bool }

func (s stubSharding) Route(ts string) (owner string, local, sharded bool) {
	if !strings.HasPrefix(ts, oracleRoot) {
		return "", false, false
	}
	if s.local {
		return "self", true, true
	}
	return "owner", false, true
}

func (stubSharding) Info() ShardInfo { return ShardInfo{} }

// scriptConn hands its read loop a fixed list of frames, then closes.
type scriptConn struct{ frames [][]byte }

func (c *scriptConn) Recv() ([]byte, error) {
	if len(c.frames) == 0 {
		return nil, transport.ErrClosed
	}
	f := c.frames[0]
	c.frames = c.frames[1:]
	return f, nil
}
func (c *scriptConn) Send([]byte) error  { return nil }
func (c *scriptConn) Close() error       { return nil }
func (c *scriptConn) LocalAddr() string  { return "script-local" }
func (c *scriptConn) RemoteAddr() string { return "script-remote" }

// addQuietPeer registers a peer the way newPeer does, minus the egress
// writer: frames enqueued for it stay queued for inspection.
func addQuietPeer(b *Broker, conn transport.Conn, name string, isBroker bool, subs ...topic.Topic) *peer {
	p := &peer{
		conn:       conn,
		isBroker:   isBroker,
		name:       name,
		principal:  topic.EntityPrincipal(ident.EntityID(name)),
		out:        newEgress(conn, DefaultEgressQueue, 0),
		advertised: make(map[string]struct{}),
		subs:       make(map[string]struct{}),
	}
	if isBroker {
		p.principal = topic.BrokerPrincipal()
	}
	b.mu.Lock()
	b.peers[p] = struct{}{}
	if isBroker {
		b.links[name] = p
	}
	b.mu.Unlock()
	for _, tp := range subs {
		b.addSubscription(p, tp)
	}
	return p
}

// queued returns the data frames waiting in p's egress queue.
func queued(p *peer) [][]byte {
	if p == nil {
		return nil
	}
	p.out.mu.Lock()
	defer p.out.mu.Unlock()
	return append([][]byte(nil), p.out.data[p.out.dataHead:]...)
}

// oracleEnv is one member of the envelope set.
type oracleEnv struct {
	name string
	env  *message.Envelope
	wire []byte
}

// The envelope set's topics: two derivatives of one fixed trace topic,
// which the broker persists and the stub shards, and a plain topic it
// does neither to.
var (
	oracleTrace = ident.UUID{15: 1}
	oracleRoot  = "/Constrained/Traces/Broker/Publish-Only/" + oracleTrace.String() + "/"
	oracleT1    = topic.AllUpdates(oracleTrace)
	oracleT2    = topic.StateTransitions(oracleTrace)
	oraclePlain = topic.MustParse("/plain/x")
)

// oracleSet builds the envelope set, in arrival order: valid envelopes
// on two interleaved durable topics, a duplicate, an expired one, a
// spoofed source, a guard rejection, a non-persistable topic, and one
// whose TTL the next hop would exhaust.
func oracleSet(source ident.EntityID) []oracleEnv {
	mk := func(name string, tp topic.Topic, mod func(*message.Envelope)) oracleEnv {
		env := message.New(message.TypeData, tp, source, []byte(name))
		if mod != nil {
			mod(env)
		}
		return oracleEnv{name: name, env: env, wire: env.Marshal()}
	}
	v1 := mk("v1", oracleT1, nil)
	dup := v1
	dup.name = "dup"
	return []oracleEnv{
		v1,
		mk("v2", oracleT2, nil),
		dup,
		mk("ttl0", oracleT1, func(e *message.Envelope) { e.TTL = 0 }),
		mk("spoof", oracleT1, func(e *message.Envelope) { e.Source = "mallory" }),
		mk("reject", oracleT2, nil),
		mk("plain", oraclePlain, nil),
		mk("v3", oracleT1, nil),
		mk("v4", oracleT2, nil),
		mk("ttl1", oracleT1, func(e *message.Envelope) { e.TTL = 1 }),
	}
}

// oracleCell is one plan the shard stage can hand out, with the ingress
// that provokes it.
type oracleCell struct {
	name     string
	sharding Sharding // nil: no fabric
	ingress  string   // peer the set arrives from: a client, or a link by name
	ownerUp  bool     // a live link named "owner" exists besides the ingress
	// accepted names, in order, the envelopes that survive admission for
	// peer ingress. A client cannot spoof; a link is not source-checked;
	// fan-in skips the guard because the owner ran it.
	accepted []string
	floods   bool // sharded topics reach the ordinary flood link
	ownerHop bool // sharded topics take the unicast hop to the owner
	persists bool // durable topics are appended here
	fanIn    bool
}

var oracleCells = []oracleCell{
	{name: "unsharded", ingress: "pub",
		accepted: []string{"v1", "v2", "plain", "v3", "v4", "ttl1"}, floods: true, persists: true},
	{name: "local-owner", sharding: stubSharding{local: true}, ingress: "pub",
		accepted: []string{"v1", "v2", "plain", "v3", "v4", "ttl1"}, floods: true, persists: true},
	{name: "remote-owner-link-up", sharding: stubSharding{}, ingress: "pub", ownerUp: true,
		accepted: []string{"v1", "v2", "plain", "v3", "v4", "ttl1"}, ownerHop: true, persists: true},
	{name: "remote-owner-link-down", sharding: stubSharding{}, ingress: "pub",
		accepted: []string{"v1", "v2", "plain", "v3", "v4", "ttl1"}, floods: true, persists: true},
	{name: "fan-in-from-owner", sharding: stubSharding{}, ingress: "owner",
		accepted: []string{"v1", "v2", "spoof", "reject", "plain", "v3", "v4", "ttl1"}, fanIn: true},
	{name: "transit-to-owner", sharding: stubSharding{}, ingress: "transit", ownerUp: true,
		accepted: []string{"v1", "v2", "spoof", "plain", "v3", "v4", "ttl1"}, ownerHop: true},
}

// oracleResult is everything one run lets an observer see.
type oracleResult struct {
	Locals    []string            // local subscriber deliveries (on T1 and the plain topic)
	Client    [][]byte            // frames queued for the client subscriber
	Flood     [][]byte            // frames queued on the ordinary broker link
	Owner     [][]byte            // frames queued on the owner link
	Logs      map[string][][]byte // durable log payloads by topic
	Counters  map[string]uint64   // the broker's own counters, by /metrics name
	Score     float64             // ingress peer's violation score
	Forwards  uint64              // broker_fabric_forward_total delta
	FanIns    uint64              // broker_fabric_fanin_total delta
	NoRoutes  uint64              // broker_fabric_no_route_total delta
	PubErrors []string
	// headsAt[i] is the durable heads (T1, T2) seen by local delivery i.
	headsAt [][2]uint64
}

const (
	framingEnvelopes = "frameEnvelope"
	framingBatch     = "frameBatch"
	framingLocal     = "Publish"
)

func runOracle(t *testing.T, cell oracleCell, framing string, withStore bool, set []oracleEnv) oracleResult {
	t.Helper()
	var store *durable.Store
	if withStore {
		var err error
		store, err = durable.Open(t.TempDir(), durable.Options{Fsync: durable.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
	}
	b := New(Config{
		Name:    "self",
		Clock:   clock.NewFake(time.Unix(1_700_000_000, 0)), // no decay: scores compare exactly
		Durable: store,
		Guard: func(env *message.Envelope, _ topic.Principal, _ time.Time, _ bool) error {
			if string(env.Payload) == "reject" {
				return errors.New("guard: rejected")
			}
			return nil
		},
	})
	defer b.Close()
	if cell.sharding != nil {
		b.SetSharding(cell.sharding)
	}

	var res oracleResult
	names := make(map[ident.UUID]string)
	for _, e := range set {
		if e.name != "dup" {
			names[e.env.ID] = e.name
		}
	}
	local := func(env *message.Envelope) {
		res.Locals = append(res.Locals, names[env.ID])
		if store != nil {
			res.headsAt = append(res.headsAt, [2]uint64{store.Head(oracleT1.String()), store.Head(oracleT2.String())})
		}
	}
	b.SubscribeLocal(oracleT1, local)
	b.SubscribeLocal(oraclePlain, local)
	client := addQuietPeer(b, &scriptConn{}, "watcher", false, oracleT1, oracleT2, oraclePlain)
	flood := addQuietPeer(b, &scriptConn{}, "flood", true, oracleT1, oracleT2, oraclePlain)
	var owner *peer
	if cell.ownerUp {
		owner = addQuietPeer(b, &scriptConn{}, "owner", true)
	}

	fwd0, fanin0, noroute0 := mFabricForwards.Value(), mFabricFanIn.Value(), mFabricNoRoute.Value()
	if framing == framingLocal {
		for _, e := range set {
			env, err := message.Unmarshal(e.wire)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Publish(env); err != nil {
				res.PubErrors = append(res.PubErrors, e.name)
			}
		}
	} else {
		var frames [][]byte
		for _, e := range set {
			frames = append(frames, append([]byte{frameEnvelope}, e.wire...))
		}
		if framing == framingBatch {
			frames = [][]byte{appendBatch(nil, frames)}
		}
		ingress := addQuietPeer(b, &scriptConn{frames: frames}, cell.ingress, cell.ingress != "pub")
		// The set's derivatives are broker-constrained (§3.1), and topic
		// authorization is not what the oracle varies: the client keeps
		// its source check but publishes with a broker's rights.
		ingress.principal = topic.BrokerPrincipal()
		b.peerLoop(ingress) // returns once the script is exhausted
		res.Score = ingress.score.current()
	}
	res.Forwards = mFabricForwards.Value() - fwd0
	res.FanIns = mFabricFanIn.Value() - fanin0
	res.NoRoutes = mFabricNoRoute.Value() - noroute0

	res.Client, res.Flood, res.Owner = queued(client), queued(flood), queued(owner)
	res.Counters = b.Snapshot().Counters
	res.Logs = make(map[string][][]byte)
	if store != nil {
		for _, ts := range store.Topics() {
			recs, err := store.Get(ts).ReadFrom(1, 100, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				res.Logs[ts] = append(res.Logs[ts], r.Payload)
			}
		}
	}
	return res
}

// checkOracle holds one run against the reference model: the accepted
// list and the cell's plan determine every delivery, link frame and log
// record.
func checkOracle(t *testing.T, cell oracleCell, framing string, withStore bool, set []oracleEnv, accepted []string, res oracleResult) {
	t.Helper()
	byName := make(map[string]oracleEnv)
	for _, e := range set {
		byName[e.name] = e
	}
	var locals []string
	var client, flood, owner [][]byte
	logs := make(map[string][][]byte)
	for _, name := range accepted {
		e := byName[name]
		ts := e.env.Topic.String()
		sharded := ts != oraclePlain.String()
		frame := append([]byte{frameEnvelope}, e.env.AppendWire(nil, e.env.TTL-1)...)
		if ts != oracleT2.String() {
			locals = append(locals, name)
		}
		client = append(client, frame)
		if e.env.TTL > 1 {
			if !sharded || cell.floods {
				flood = append(flood, frame)
			}
			if sharded && cell.ownerHop {
				owner = append(owner, frame)
			}
		}
		if sharded && cell.persists && withStore {
			logs[ts] = append(logs[ts], e.wire)
		}
	}
	if !reflect.DeepEqual(res.Locals, locals) {
		t.Errorf("local deliveries = %v, want %v", res.Locals, locals)
	}
	for _, q := range []struct {
		what      string
		got, want [][]byte
	}{{"client", res.Client, client}, {"flood link", res.Flood, flood}, {"owner link", res.Owner, owner}} {
		if !reflect.DeepEqual(q.got, q.want) {
			t.Errorf("%s frames: got %d, want %d (or bytes differ)", q.what, len(q.got), len(q.want))
		}
	}
	if !reflect.DeepEqual(res.Logs, logs) {
		t.Errorf("durable logs hold %d/%d records on T1/T2, want %d/%d byte-equal to the wire bodies in arrival order",
			len(res.Logs[oracleT1.String()]), len(res.Logs[oracleT2.String()]), len(logs[oracleT1.String()]), len(logs[oracleT2.String()]))
	}
	s := res.Counters
	if s["broker_published_total"] != uint64(len(accepted)) || s["broker_duplicates_total"] != 1 || s["broker_expired_total"] != 1 ||
		s["broker_delivered_local_total"] != uint64(len(locals)) || s["broker_forwarded_total"] != uint64(len(client)+len(flood)+len(owner)) {
		t.Errorf("counters = %v, want %d published, 1 duplicate, 1 expired, %d local, %d forwarded",
			s, len(accepted), len(locals), len(client)+len(flood)+len(owner))
	}
	if res.Forwards != uint64(len(owner)) {
		t.Errorf("broker_fabric_forward_total moved by %d, want %d", res.Forwards, len(owner))
	}
	// Every accepted envelope but the unsharded one is a fan-in, in that
	// cell; every sharded envelope planned without a route counts one.
	var fanIns, noRoutes uint64
	if cell.fanIn {
		fanIns = uint64(len(accepted) - 1)
	}
	if cell.sharding == (stubSharding{}) && !cell.fanIn && !cell.ownerUp {
		noRoutes = uint64(len(set) - 1)
	}
	if res.FanIns != fanIns || res.NoRoutes != noRoutes {
		t.Errorf("fabric fan-in/no-route counters moved by %d/%d, want %d/%d", res.FanIns, res.NoRoutes, fanIns, noRoutes)
	}
	// Persist before fan-out: a batch has every record of every topic
	// appended before its first delivery; a lone envelope has its own.
	if len(logs) > 0 {
		final := [2]uint64{uint64(len(logs[oracleT1.String()])), uint64(len(logs[oracleT2.String()]))}
		var t1Seen uint64
		for i, name := range res.Locals {
			if byName[name].env.Topic.String() == oracleT1.String() {
				t1Seen++
			}
			switch heads := res.headsAt[i]; {
			case framing == framingBatch && heads != final:
				t.Errorf("delivery %d (%s) saw log heads %v, want the whole batch appended first: %v", i, name, heads, final)
			case framing != framingBatch && heads[0] != t1Seen:
				t.Errorf("delivery %d (%s) saw T1 head %d, want %d", i, name, heads[0], t1Seen)
			}
		}
	}
}

func TestPublishPipelineOracle(t *testing.T) {
	for _, cell := range oracleCells {
		source := ident.EntityID("pub")
		set := oracleSet(source)
		// A local publish has no peer whose name the source could spoof.
		var localSet []oracleEnv
		for _, e := range set {
			if e.name != "spoof" {
				localSet = append(localSet, e)
			}
		}
		for _, withStore := range []bool{false, true} {
			storeName := map[bool]string{false: "no-store", true: "durable"}[withStore]
			t.Run(cell.name+"/"+storeName, func(t *testing.T) {
				one := runOracle(t, cell, framingEnvelopes, withStore, set)
				checkOracle(t, cell, framingEnvelopes, withStore, set, cell.accepted, one)
				if len(one.Locals) == 0 || len(one.Client) == 0 {
					t.Fatal("oracle is vacuous: nothing was delivered")
				}

				batch := runOracle(t, cell, framingBatch, withStore, set)
				checkOracle(t, cell, framingBatch, withStore, set, cell.accepted, batch)
				one.headsAt, batch.headsAt = nil, nil
				if !reflect.DeepEqual(one, batch) {
					t.Errorf("one frameBatch diverges from frameEnvelope one by one:\n envelopes %+v\n batch     %+v", summarize(one), summarize(batch))
				}

				if cell.ingress != "pub" {
					return // fan-in and transit need a link to arrive over
				}
				local := runOracle(t, cell, framingLocal, withStore, localSet)
				checkOracle(t, cell, framingLocal, withStore, localSet, cell.accepted, local)
				if !reflect.DeepEqual(local.PubErrors, []string{"reject"}) {
					t.Errorf("Publish returned errors for %v, want only the guard rejection", local.PubErrors)
				}
				// A local rejection is returned, not scored against a peer;
				// with that and the unspoofable source set aside, the
				// observable outcome is the peer framings'.
				local.PubErrors, local.headsAt = nil, nil
				want := one
				want.Counters = maps.Clone(one.Counters)
				want.Counters["broker_violations_total"], want.Score = 0, 0
				want.NoRoutes = local.NoRoutes // counted per planned envelope: one fewer without the spoof
				if !reflect.DeepEqual(local, want) {
					t.Errorf("local Publish diverges from frameEnvelope one by one:\n envelopes %+v\n publish   %+v", summarize(want), summarize(local))
				}
			})
		}
	}
}

// summarize renders a result compactly for failure messages.
func summarize(r oracleResult) map[string]any {
	return map[string]any{
		"locals": r.Locals, "client": len(r.Client), "flood": len(r.Flood), "owner": len(r.Owner),
		"logT1": len(r.Logs[oracleT1.String()]), "logT2": len(r.Logs[oracleT2.String()]),
		"counters": r.Counters, "score": r.Score, "fwd": r.Forwards, "fanin": r.FanIns, "noroute": r.NoRoutes,
	}
}

// TestForwardToOwnerHonoursTTL is the TTL-1 sibling of the fabric's
// TestFabricForwardToOwner: a publish whose decremented TTL is exhausted
// is delivered to local subscribers but never leaves on the owner link —
// the owner would only drop it as ttl_expired — and is not counted as a
// forward.
func TestForwardToOwnerHonoursTTL(t *testing.T) {
	b := New(Config{Name: "self"})
	defer b.Close()
	b.SetSharding(stubSharding{})
	owner := addQuietPeer(b, &scriptConn{}, "owner", true)
	watcher := addQuietPeer(b, &scriptConn{}, "watcher", false, oracleT1)
	fwd0 := mFabricForwards.Value()

	last := message.New(message.TypeData, oracleT1, "", []byte("last hop"))
	last.TTL = 1
	if err := b.Publish(last); err != nil {
		t.Fatal(err)
	}
	if n := len(queued(owner)); n != 0 {
		t.Fatalf("%d frame(s) left on the owner link with an exhausted TTL", n)
	}
	if got := queued(watcher); len(got) != 1 {
		t.Fatalf("local client got %d frames, want 1", len(got))
	}
	if s := b.Snapshot().Counters; s["broker_forwarded_total"] != 1 || mFabricForwards.Value() != fwd0 {
		t.Fatalf("forwarded = %d, fabric forwards moved by %d; want 1 and 0", s["broker_forwarded_total"], mFabricForwards.Value()-fwd0)
	}

	// One more hop of TTL and the same publish does take the owner hop.
	if err := b.Publish(message.New(message.TypeData, oracleT1, "", []byte("two hops"))); err != nil {
		t.Fatal(err)
	}
	got := queued(owner)
	if len(got) != 1 {
		t.Fatalf("owner link got %d frames, want 1", len(got))
	}
	env, err := message.Unmarshal(got[0][1:])
	if err != nil || env.TTL != message.DefaultTTL-1 || !bytes.Equal(env.Payload, []byte("two hops")) {
		t.Fatalf("owner frame = %+v (%v), want the publish with TTL %d", env, err, message.DefaultTTL-1)
	}
	if mFabricForwards.Value() != fwd0+1 {
		t.Fatalf("fabric forwards moved by %d, want 1", mFabricForwards.Value()-fwd0)
	}
}

// TestOwnerLinkSubscriberGetsOneFrame: an owner link that also holds a
// subscription on the sharded topic here — interest it advertised
// before the topic moved to it, say — is queued the envelope once, as
// the unicast hop, not a second time as a subscriber.
func TestOwnerLinkSubscriberGetsOneFrame(t *testing.T) {
	b := New(Config{Name: "self"})
	defer b.Close()
	b.SetSharding(stubSharding{})
	owner := addQuietPeer(b, &scriptConn{}, "owner", true, oracleT1)
	watcher := addQuietPeer(b, &scriptConn{}, "watcher", false, oracleT1)
	if err := b.Publish(message.New(message.TypeData, oracleT1, "", []byte("once"))); err != nil {
		t.Fatal(err)
	}
	if n := len(queued(owner)); n != 1 {
		t.Fatalf("owner link got %d frames, want 1", n)
	}
	if n := len(queued(watcher)); n != 1 {
		t.Fatalf("subscriber got %d frames, want 1", n)
	}
}
