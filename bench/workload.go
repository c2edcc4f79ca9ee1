package main

import (
	"fmt"
	"os"
	"time"

	"entitytrace/internal/avail"
	"entitytrace/internal/broker"
	"entitytrace/internal/core"
	"entitytrace/internal/harness"
	"entitytrace/internal/ident"
	"entitytrace/internal/topic"
)

// Every workload has the same population so rows compare: 4 traced
// entities, 2 tracker clients watching 2 entities each, 2 generator
// goroutines owning 2 entities each.
const (
	numEntities   = 4
	numTrackers   = 2
	numGenerators = 2
)

// workload is one topology + traffic mix. Names are fixed: later issues
// cite them.
type workload struct {
	name string
	why  string
	// opts is the harness topology; Transport/KeyBits are filled in by
	// deploy.
	opts harness.Options
	// durable roots the brokers' logs in a temp dir and makes the
	// trackers replay-mode consumers.
	durable bool
	// entityBroker/trackerBroker place the clients.
	entityBroker  func(i int) int
	trackerBroker func(t int) int
	// state selects SetState READY<->RECOVERING; otherwise ReportLoad.
	state bool
	// pacedRate is the open-loop total emissions/s; window is the
	// closed-loop in-flight bound per entity.
	pacedRate int
	window    int
}

func chainEntity(int) int    { return 0 }
func chainTracker(int) int   { return 2 }
func fabricEntity(i int) int { return i }
func fabricTracker(t int) int {
	return 3 - t
}

var workloads = []workload{
	{
		name:         "state_rsa_chain3",
		why:          "Paper Table 3 authorization row: RSA sign+verify per hop dominates, routing is noise",
		opts:         harness.Options{Brokers: 3},
		entityBroker: chainEntity, trackerBroker: chainTracker,
		state: true, pacedRate: 400, window: 8,
	},
	{
		name: "load_session_chain3",
		why:  "Section 6.3 amortised path: session tags + batching, so codec, routing, egress and transport dominate",
		opts: harness.Options{Brokers: 3, SessionKeys: true, Symmetric: true,
			BatchBytes: 32 << 10},
		entityBroker: chainEntity, trackerBroker: chainTracker,
		pacedRate: 5000, window: 128,
	},
	{
		name:         "load_session_durable3",
		why:          "Persist-before-fan-out at 3 brokers and delivery through the replay/ACK cursor pump: durable writes beside reads",
		opts:         harness.Options{Brokers: 3, SessionKeys: true, Symmetric: true},
		durable:      true,
		entityBroker: chainEntity, trackerBroker: chainTracker,
		pacedRate: 4000, window: 32,
	},
	{
		name: "load_session_fabric4",
		why:  "Ingress to owner to subscriber forwarding over a 4-broker fabric instead of a chain, uncapped",
		// FabricFailAfter is brokerd's default (5 x its 500 ms gossip). The
		// harness's own default, 250 ms, declares a busy broker dead when
		// the host stalls, and the traces in flight to it are lost.
		opts: harness.Options{Brokers: 4, Fabric: true, SessionKeys: true, Symmetric: true,
			BatchBytes: 32 << 10, FabricFailAfter: 2500 * time.Millisecond},
		entityBroker: fabricEntity, trackerBroker: fabricTracker,
		pacedRate: 5000, window: 128,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deployment is one running system under test plus the bench's clients.
type deployment struct {
	tb       *harness.Testbed
	entities []*core.TracedEntity
	names    []string // entity names, indexed like entities
	trackers []*core.Tracker
	watches  []*core.Watch // indexed by entity
	ledgers  []*avail.Ledger
	logDir   string
	closed   bool
	// discarded is the time spent on fabric registrations that were
	// thrown away (see startEntity); set-up time leaves it out.
	discarded time.Duration
}

// deploy builds the topology, registers the entities and starts the
// trackers. deliver(entity, ev) runs on the tracker's receive goroutine
// after verify, decode and ledger observe. The bench builds trackers
// itself (not harness.StartTracker, whose 1024-slot event channel drops
// on overflow).
func deploy(w workload, tmpDir string, times *setupTimes, deliver func(entity int, ev core.Event)) (*deployment, error) {
	d := &deployment{}
	opts := w.opts
	opts.Transport = "tcp"
	opts.EgressQueue = 4096
	if w.durable {
		dir, err := os.MkdirTemp(tmpDir, "durable-")
		if err != nil {
			return nil, err
		}
		d.logDir = dir
		opts.LogDir = dir
	}
	tb, err := harness.New(opts)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("testbed: %w", err)
	}
	d.tb = tb
	if opts.Fabric {
		if err := awaitFabric(tb, 15*time.Second); err != nil {
			d.close()
			return nil, err
		}
	}
	for i := 0; i < numEntities; i++ {
		if err := d.startEntity(w, i, times); err != nil {
			d.close()
			return nil, fmt.Errorf("entity %d: %w", i, err)
		}
	}
	class := topic.ClassLoad
	if w.state {
		class = topic.ClassStateTransitions
	}
	d.watches = make([]*core.Watch, numEntities)
	for t := 0; t < numTrackers; t++ {
		name := ident.EntityID(fmt.Sprintf("bench-tracker-%d", t))
		start := time.Now()
		id, err := tb.CA.Issue(name)
		if err != nil {
			d.close()
			return nil, err
		}
		times.issueMs = append(times.issueMs, msSince(start))
		cl, err := broker.Connect(tb.Transport(), tb.Addrs[w.trackerBroker(t)], name)
		if err != nil {
			d.close()
			return nil, err
		}
		ledger := avail.New(avail.Config{})
		tk, err := core.NewTracker(core.TrackerConfig{
			Identity:  id,
			Verifier:  tb.Verifier,
			Discovery: tb.Node,
			Resolver:  core.NewCachingResolver(core.NodeResolver(tb.Node)),
			Client:    cl,
			Avail:     ledger,
			Replay:    w.durable,
		})
		if err != nil {
			cl.Close()
			d.close()
			return nil, err
		}
		d.trackers = append(d.trackers, tk)
		d.ledgers = append(d.ledgers, ledger)
		for _, e := range trackedBy(t) {
			e := e
			start := time.Now()
			watch, err := tk.TrackEntity(ident.EntityID(d.names[e]), topic.NewClassSet(class),
				func(ev core.Event) { deliver(e, ev) })
			if err != nil {
				d.close()
				return nil, fmt.Errorf("tracker %d track entity %d: %w", t, e, err)
			}
			times.trackMs = append(times.trackMs, msSince(start))
			d.watches[e] = watch
		}
	}
	return d, nil
}

// startEntity registers entity i on its broker. In a fabric the TDN's
// random topic id decides which broker owns the entity's traces, and
// with it how many brokers a trace crosses; the entity is registered
// again, under a fresh name, until the owner is neither its ingress nor
// its tracker's broker, so every trace of every run takes the full
// ingress -> owner -> subscriber path. How many tries that takes is
// chance, not the program's doing: only the registration that is kept
// counts towards set-up time and core.entity_register_ms.
func (d *deployment) startEntity(w workload, i int, times *setupTimes) error {
	ingress := w.entityBroker(i)
	for attempt := 0; attempt < 32; attempt++ {
		name := fmt.Sprintf("bench-entity-%d-%d", i, attempt)
		start := time.Now()
		ent, err := d.tb.StartEntity(name, ingress)
		if err != nil {
			return err
		}
		if w.opts.Fabric {
			owner, _, sharded := d.tb.Fabrics[ingress].Route(topic.ForClass(ent.TraceTopic(), topic.ClassLoad).String())
			if !sharded {
				return fmt.Errorf("fabric does not shard the trace topic of %s", name)
			}
			if owner == d.tb.Brokers[ingress].Name() || owner == d.tb.Brokers[w.trackerBroker(trackerOf(i))].Name() {
				// The broker ends the session on SHUTDOWN and may close the
				// connection first; Stop's close error says only that.
				_ = ent.Stop()
				d.discarded += time.Since(start)
				continue
			}
		}
		times.registerMs = append(times.registerMs, msSince(start))
		d.entities = append(d.entities, ent)
		d.names = append(d.names, name)
		return nil
	}
	return fmt.Errorf("no trace topic owned by a third broker in 32 registrations")
}

// trackedBy lists the entities tracker t watches; trackerOf is its
// inverse.
func trackedBy(t int) []int { return []int{2 * t, 2*t + 1} }
func trackerOf(e int) int   { return e / 2 }

// ownedBy lists the entities generator g drives. Ownership interleaves
// with tracking so each generator feeds both trackers.
func ownedBy(g int) []int { return []int{g, g + numGenerators} }

func awaitFabric(tb *harness.Testbed, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		converged := true
		for _, f := range tb.Fabrics {
			if len(f.Members()) != len(tb.Fabrics) {
				converged = false
			}
		}
		if converged {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fabric did not converge to %d members within %v", len(tb.Fabrics), timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func msSince(start time.Time) float64 { return float64(time.Since(start)) / 1e6 }

// close tears the deployment down and removes its durable logs; a
// second call does nothing.
func (d *deployment) close() {
	if d.closed {
		return
	}
	d.closed = true
	for _, tk := range d.trackers {
		tk.Close()
	}
	if d.tb != nil {
		d.tb.Close()
	}
	if d.logDir != "" {
		os.RemoveAll(d.logDir)
	}
}
