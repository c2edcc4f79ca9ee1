// Quickstart wires the whole system up — certificate authority, topic
// discovery node, one broker node with its guard and trace manager — then
// starts a traced entity and a tracker and prints the traces that flow:
// JOIN, state transitions, heartbeats, load, and the SHUTDOWN when the
// entity leaves.
package main

import (
	"fmt"
	"log"
	"time"

	"entitytrace/internal/broker"
	"entitytrace/internal/clock"
	"entitytrace/internal/core"
	"entitytrace/internal/credential"
	"entitytrace/internal/message"
	"entitytrace/internal/node"
	"entitytrace/internal/sysinfo"
	"entitytrace/internal/tdn"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

func main() {
	// 1. Trust fabric: a CA every component trusts, and a Topic
	//    Discovery Node holding signed topic advertisements (§3.1).
	ca, err := credential.NewAuthority("quickstart-ca")
	check(err)
	verifier, err := credential.NewVerifier(ca.CACertificate())
	check(err)
	tdnID, err := ca.Issue("tdn-1")
	check(err)
	discovery, err := tdn.NewNode(tdnID, verifier)
	check(err)

	// 2. One broker node: the §4.3 token guard at its ingress, the broker
	//    and the broker-side trace manager (§3.3), serving on "broker-1".
	tr := transport.NewInproc()
	resolver := core.NewCachingResolver(core.NodeResolver(discovery))
	brokerID, err := ca.Issue("broker-1-identity")
	check(err)
	bn, err := node.Start(node.Config{
		Name:      "broker-1",
		Clock:     clock.Real{},
		Transport: tr,
		Listen:    "broker-1",
		Guard:     core.GuardConfig{Resolver: resolver, Verifier: verifier},
		Manager:   core.BrokerConfig{Identity: brokerID, GaugeInterval: 500 * time.Millisecond},
	})
	check(err)
	defer bn.Close()

	// 3. A traced entity: create its trace topic, register, delegate
	//    publication authority (§3.1–§3.2, §4.3).
	entityID, err := ca.Issue("payment-service")
	check(err)
	entityConn, err := broker.Connect(tr, "broker-1", "payment-service")
	check(err)
	entity, err := core.StartTracing(core.EntityConfig{
		Identity:        entityID,
		Verifier:        verifier,
		Registry:        discovery,
		Client:          entityConn,
		AllowAnyTracker: true,
	})
	check(err)
	fmt.Printf("traced entity up: topic=%s session=%s\n", entity.TraceTopic(), entity.SessionID())

	// 4. A tracker: credentialed discovery via /Liveness/<Entity-ID>
	//    (§3.4), then subscribe to every trace class.
	trackerID, err := ca.Issue("ops-dashboard")
	check(err)
	trackerConn, err := broker.Connect(tr, "broker-1", "ops-dashboard")
	check(err)
	tracker, err := core.NewTracker(core.TrackerConfig{
		Identity:  trackerID,
		Verifier:  verifier,
		Discovery: discovery,
		Resolver:  resolver,
		Client:    trackerConn,
	})
	check(err)
	defer tracker.Close()

	ad, err := tracker.Discover("payment-service")
	check(err)
	events := make(chan core.Event, 64)
	_, err = tracker.Track(ad, topic.AllClasses(), func(ev core.Event) { events <- ev })
	check(err)

	// 5. Drive the entity through its lifecycle and watch the traces.
	go func() {
		time.Sleep(200 * time.Millisecond)
		check(entity.SetState(message.StateReady))
		check(entity.ReportLoad(sysinfo.Load{CPUPercent: 31.5, Workload: 0.3, At: time.Now()}))
		time.Sleep(600 * time.Millisecond)
		check(entity.Stop())
	}()

	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev := <-events:
			fmt.Printf("  trace: %-24s class=%-19s detail=%q\n", ev.Type, ev.Class, ev.Detail)
			if ev.Type == message.TraceShutdown {
				fmt.Println("entity shut down cleanly — quickstart done")
				return
			}
		case <-deadline:
			log.Fatal("quickstart: timed out waiting for SHUTDOWN")
		}
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
