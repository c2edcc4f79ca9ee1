// Federation demonstrates the distributed substrate of §2: a chain of
// three broker nodes (edge — hub — edge), a traced entity on one edge
// and a tracker on the other, traces flowing across both inter-broker
// hops with authorization tokens verified at every node. Midway the hub
// broker is killed and restarted; the persistent links re-dial,
// re-synchronize subscription state, and tracking resumes without
// either endpoint doing anything.
package main

import (
	"fmt"
	"log"
	"time"

	"entitytrace/internal/backoff"
	"entitytrace/internal/broker"
	"entitytrace/internal/clock"
	"entitytrace/internal/core"
	"entitytrace/internal/credential"
	"entitytrace/internal/failure"
	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/node"
	"entitytrace/internal/tdn"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

func main() {
	ca, err := credential.NewAuthority("federation-ca")
	check(err)
	verifier, err := credential.NewVerifier(ca.CACertificate())
	check(err)
	tdnID, err := ca.Issue("tdn")
	check(err)
	discovery, err := tdn.NewNode(tdnID, verifier)
	check(err)
	tr := transport.NewInproc()

	detector := failure.Config{
		BaseInterval:       60 * time.Millisecond,
		MinInterval:        20 * time.Millisecond,
		MaxInterval:        time.Second,
		ResponseTimeout:    500 * time.Millisecond,
		SuspicionThreshold: 8,
		FailureThreshold:   4,
		SuccessesPerRelax:  1 << 30,
	}

	// startBroker starts one broker node — guard, broker, trace manager —
	// serving on its name as inproc address. An edge (connect set) keeps a
	// persistent link to the hub, re-dialing it whenever it is gone.
	startBroker := func(name, connect string) *node.Node {
		id, err := ca.Issue(ident.EntityID(name + "-identity"))
		check(err)
		n, err := node.Start(node.Config{
			Name:      name,
			Clock:     clock.Real{},
			Transport: tr,
			Listen:    name,
			Guard: core.GuardConfig{
				Resolver: core.NewCachingResolver(core.NodeResolver(discovery)),
				Verifier: verifier,
			},
			Manager:      core.BrokerConfig{Identity: id, Detector: detector, GaugeInterval: 150 * time.Millisecond},
			Connect:      connect,
			ConnectRetry: backoff.Config{Initial: 50 * time.Millisecond, Max: 400 * time.Millisecond},
		})
		check(err)
		return n
	}

	edgeA := startBroker("edge-a", "hub")
	defer edgeA.Close()
	hub := startBroker("hub", "")
	edgeB := startBroker("edge-b", "hub")
	defer edgeB.Close()

	// Traced entity on edge-a.
	entityID, err := ca.Issue("inventory-service")
	check(err)
	entityConn, err := broker.Connect(tr, "edge-a", "inventory-service")
	check(err)
	ent, err := core.StartTracing(core.EntityConfig{
		Identity:        entityID,
		Verifier:        verifier,
		Registry:        discovery,
		Client:          entityConn,
		AllowAnyTracker: true,
	})
	check(err)
	fmt.Println("inventory-service traced at edge-a")

	// Tracker on edge-b, two broker hops away.
	trackerID, err := ca.Issue("dashboard")
	check(err)
	trackerConn, err := broker.Connect(tr, "edge-b", "dashboard")
	check(err)
	tk, err := core.NewTracker(core.TrackerConfig{
		Identity:  trackerID,
		Verifier:  verifier,
		Discovery: discovery,
		Resolver:  core.NewCachingResolver(core.NodeResolver(discovery)),
		Client:    trackerConn,
	})
	check(err)
	defer tk.Close()
	events := make(chan core.Event, 64)
	_, err = tk.TrackEntity("inventory-service", topic.NewClassSet(topic.ClassStateTransitions), func(ev core.Event) {
		events <- ev
	})
	check(err)

	// Prove traces cross the chain.
	awaitState := func(want message.EntityState, phase string) {
		deadline := time.After(15 * time.Second)
		tick := time.After(0)
		for {
			select {
			case ev := <-events:
				if ev.State != nil && ev.State.To == want {
					fmt.Printf("  dashboard saw %s across edge-a -> hub -> edge-b (%s)\n", ev.Type, phase)
					return
				}
			case <-tick:
				// Re-issue the transition until interest propagation and
				// (post-restart) link recovery let it through.
				check(ent.SetState(want))
				tick = time.After(200 * time.Millisecond)
			case <-deadline:
				log.Fatalf("federation: no %v trace during %s", want, phase)
			}
		}
	}
	awaitState(message.StateReady, "initial")

	// Kill the hub: the network is partitioned.
	fmt.Println("\n*** hub broker crashes ***")
	hub.Close()
	time.Sleep(100 * time.Millisecond)

	// Restart it at the same address; persistent links re-sync.
	fmt.Println("*** hub broker restarts; persistent links re-dial ***")
	hub = startBroker("hub", "")
	defer hub.Close()

	awaitState(message.StateRecovering, "after hub restart")
	fmt.Println("\nrouting recovered without reconfiguring entity or tracker")
	check(ent.Stop())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
