// Fabric e2e suite (PROTOCOL.md §3.9): a 16-broker fabric tracking
// 100k simulated entities, and a chaos scenario killing a shard owner
// mid-stream.
//
// Run with: make fabric
package entitytrace

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"entitytrace/internal/broker"
	"entitytrace/internal/brokerdir"
	"entitytrace/internal/durable"
	"entitytrace/internal/fabric"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

// fabricCluster is an n-broker fabric over one in-proc transport,
// bootstrapped through a broker directory.
type fabricCluster struct {
	tr      transport.Transport
	dirSrv  *brokerdir.Server
	brokers []*broker.Broker
	fabrics []*fabric.Fabric
}

func (fc *fabricCluster) close() {
	for i, f := range fc.fabrics {
		f.Close()
		fc.brokers[i].Close()
	}
	fc.dirSrv.Close()
}

// TestFabricE2E16Brokers100k tracks 100k simulated entities across a
// 16-broker fabric: every entity's state-transition topic is owned by
// some shard, subscribed from a round-robin "tracker" broker, and
// published once from a round-robin ingress broker. Every single trace
// must arrive. Gated: it is a minutes-scale soak under -race.
func TestFabricE2E16Brokers100k(t *testing.T) {
	if os.Getenv("FABRIC_E2E") == "" {
		t.Skip("set FABRIC_E2E=1 (make fabric) to run the 16-broker 100k-entity soak")
	}
	const (
		brokers  = 16
		entities = 100_000
	)
	start := time.Now()
	fc := newFabricCluster(t, brokers)
	defer fc.close()
	t.Logf("%d brokers converged in %v (epoch %d)", brokers, time.Since(start), fc.fabrics[0].Epoch())

	var got atomic.Int64
	seen := make([]atomic.Bool, entities)
	topics := make([]topic.Topic, entities)
	for i := 0; i < entities; i++ {
		i := i
		topics[i] = topic.StateTransitions(ident.NewUUID())
		fc.brokers[i%brokers].SubscribeLocal(topics[i], func(*message.Envelope) {
			if seen[i].CompareAndSwap(false, true) {
				got.Add(1)
			}
		})
		if (i+1)%25000 == 0 {
			t.Logf("%d/%d trackers subscribed (%v)", i+1, entities, time.Since(start))
		}
	}
	// Let the last advertisement waves reach the owners.
	time.Sleep(500 * time.Millisecond)
	for i := 0; i < entities; i++ {
		env := message.New(message.TypeData, topics[i], "", nil)
		if err := fc.brokers[(i+7)%brokers].Publish(env); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		if (i+1)%25000 == 0 {
			t.Logf("%d/%d traces published, %d tracked (%v)", i+1, entities, got.Load(), time.Since(start))
		}
	}
	deadline := time.Now().Add(8 * time.Minute)
	for got.Load() < entities {
		if time.Now().After(deadline) {
			t.Fatalf("tracked %d of %d entities", got.Load(), entities)
		}
		time.Sleep(5 * time.Second)
		t.Logf("%d/%d tracked (%v)", got.Load(), entities, time.Since(start))
	}
	t.Logf("all %d simulated entities tracked across %d shards in %v (epoch %d)",
		entities, brokers, time.Since(start), fc.fabrics[0].Epoch())
}

// newFabricCluster starts an n-broker fabric sharded by TraceShard and
// waits until every member sees all n.
func newFabricCluster(t testing.TB, n int) *fabricCluster {
	t.Helper()
	fc := &fabricCluster{tr: transport.NewInproc()}
	dir := brokerdir.NewDirectory(3 * time.Second)
	fc.dirSrv = brokerdir.NewServer(dir)
	dl, err := fc.tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	fc.dirSrv.Serve(dl)
	for i := 0; i < n; i++ {
		b := broker.New(broker.Config{Name: fmt.Sprintf("sb%02d", i)})
		l, err := fc.tr.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		b.Serve(l)
		f, err := fabric.New(fabric.Config{
			Broker:        b,
			Transport:     fc.tr,
			TransportName: "inproc",
			Addr:          l.Addr(),
			Dir:           brokerdir.NewClient(fc.tr, dl.Addr()),
			// Gossip floods the full mesh: 16 brokers at 10Hz is ~36k
			// frames/s of background load, enough to starve a one-core
			// -race host. The default cadence converges in a few
			// seconds and leaves the core to the workload.
			GossipInterval: 500 * time.Millisecond,
			// On a loaded -race host a healthy broker's gossip loop can
			// stall well past the default 5x-interval failure window;
			// the soak tests delivery, not failure detection.
			FailAfter: 60 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		fc.brokers = append(fc.brokers, b)
		fc.fabrics = append(fc.fabrics, f)
	}
	// A 16-broker full mesh under -race on a small host converges
	// slowly; the deadline is generous because correctness, not
	// assembly latency, is what the soak asserts.
	deadline := time.Now().Add(3 * time.Minute)
	for {
		ok := true
		for _, f := range fc.fabrics {
			if len(f.Members()) != n {
				ok = false
			}
		}
		if ok {
			return fc
		}
		if time.Now().After(deadline) {
			for i, f := range fc.fabrics {
				t.Logf("%s: members=%v epoch=%d", fc.brokers[i].Name(), f.Members(), f.Epoch())
			}
			t.Fatal("fabric cluster did not converge")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestChaosFabricOwnerKill kills a shard owner mid-stream. The durable
// origin log plus the rebalance handoff must close the gap: every
// record published before, during and after the crash is observed by
// the tracker subscription, with no ledger gap.
func TestChaosFabricOwnerKill(t *testing.T) {
	tmp := t.TempDir()
	tr := transport.NewInproc()
	dir := brokerdir.NewDirectory(3 * time.Second)
	dirSrv := brokerdir.NewServer(dir)
	dl, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	dirSrv.Serve(dl)
	defer dirSrv.Close()

	var brokers []*broker.Broker
	var fabrics []*fabric.Fabric
	var stores []*durable.Store
	for i := 0; i < 3; i++ {
		store, err := durable.Open(filepath.Join(tmp, fmt.Sprintf("cb%d", i)), durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b := broker.New(broker.Config{Name: fmt.Sprintf("cb%d", i), Durable: store})
		l, err := tr.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		b.Serve(l)
		f, err := fabric.New(fabric.Config{
			Broker:         b,
			Transport:      tr,
			TransportName:  "inproc",
			Addr:           l.Addr(),
			Dir:            brokerdir.NewClient(tr, dl.Addr()),
			GossipInterval: 25 * time.Millisecond,
			Store:          store,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		brokers = append(brokers, b)
		fabrics = append(fabrics, f)
		stores = append(stores, store)
	}
	defer func() {
		for i := range brokers {
			if fabrics[i] != nil {
				fabrics[i].Close()
			}
			brokers[i].Close()
			stores[i].Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, f := range fabrics {
			if f != nil && len(f.Members()) != 3 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("chaos fabric did not converge")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Pick a trace topic owned by cb1 (the victim); publish at cb0 (the
	// origin, which persists durably) and track at cb0.
	var tp topic.Topic
	for {
		cand := topic.StateTransitions(ident.NewUUID())
		if owner, _, _ := fabrics[0].Route(cand.String()); owner == "cb1" {
			tp = cand
			break
		}
	}
	const total = 300
	seen := make([]atomic.Bool, total)
	var got atomic.Int64
	brokers[0].SubscribeLocal(tp, func(env *message.Envelope) {
		var i int
		fmt.Sscanf(string(env.Payload), "r%d", &i)
		if i < total && seen[i].CompareAndSwap(false, true) {
			got.Add(1)
		}
	})
	time.Sleep(200 * time.Millisecond)

	for i := 0; i < total; i++ {
		if i == total/2 {
			// SIGKILL-equivalent: no leave gossip, no handoff from the
			// victim, durable store crashed cold. Survivors must detect
			// the silence, rebalance, and replay the origin tail.
			f := fabrics[1]
			fabrics[1] = nil
			f.Kill()
			brokers[1].Close()
			stores[1].Crash()
		}
		env := message.New(message.TypeData, tp, "", []byte(fmt.Sprintf("r%d", i)))
		if err := brokers[0].Publish(env); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	deadline = time.Now().Add(30 * time.Second)
	for got.Load() < total {
		if time.Now().After(deadline) {
			missing := []int{}
			for i := range seen {
				if !seen[i].Load() {
					missing = append(missing, i)
					if len(missing) > 10 {
						break
					}
				}
			}
			t.Fatalf("ledger gap after owner kill: %d of %d records observed, first missing %v",
				got.Load(), total, missing)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Ownership must have moved off the dead broker.
	if owner, _, _ := fabrics[0].Route(tp.String()); owner == "cb1" {
		t.Fatalf("dead broker still owns %s", tp)
	}
}
