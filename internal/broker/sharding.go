package broker

import (
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
)

// Fabric routing counters (PROTOCOL.md §3.9).
var (
	mFabricForwards = obs.Default.Counter("broker_fabric_forward_total")
	mFabricFanIn    = obs.Default.Counter("broker_fabric_fanin_total")
	mFabricNoRoute  = obs.Default.Counter("broker_fabric_no_route_total")
)

// ShardInfo is a fabric ownership snapshot surfaced on broker health.
type ShardInfo struct {
	// Epoch is the current ownership-table epoch.
	Epoch uint64
	// Members is the live fabric member count.
	Members int
	// OwnedPerMille is this broker's share of the hash circle.
	OwnedPerMille int
}

// Sharding is the fabric ownership table the broker consults on the
// publish path (implemented by internal/fabric). Route must be safe for
// unbounded concurrent use and lock-free in steady state: it runs once
// per published envelope.
type Sharding interface {
	// Route maps an exact topic string to its owning broker under the
	// current epoch. sharded=false means the topic is outside the
	// partitioned keyspace and routes by ordinary subscription flood;
	// local=true means this broker owns it.
	Route(ts string) (owner string, local, sharded bool)
	// Info snapshots the table for health reporting.
	Info() ShardInfo
}

// shardingRef boxes the interface so it can live in an atomic.Pointer.
type shardingRef struct{ s Sharding }

// SetSharding installs (or, with nil, removes) the fabric ownership
// table. Installed after construction — the fabric needs the broker to
// exist first — and read atomically on the publish path, so no routing
// goroutine ever blocks on it.
func (b *Broker) SetSharding(s Sharding) {
	if s == nil {
		b.sharding.Store(nil)
		return
	}
	b.sharding.Store(&shardingRef{s: s})
}

// shardingOf returns the installed ownership table, nil when the broker
// runs outside a fabric.
func (b *Broker) shardingOf() Sharding {
	ref := b.sharding.Load()
	if ref == nil {
		return nil
	}
	return ref.s
}

// shardAdvertiseOK reports whether this broker's subscription on ts
// should be advertised over link p. Under a fabric, subscriptions on
// sharded topics register with the owning shard only — the
// forward-to-owner rule guarantees every publish reaches the owner, so
// advertising anywhere else would only re-create the full flooded
// routing index the fabric exists to shrink. The owner itself
// advertises to nobody (it is the rendezvous), and unsharded topics
// keep flood semantics. Callers hold b.mu.
func (b *Broker) shardAdvertiseOK(ts string, p *peer) bool {
	s := b.shardingOf()
	if s == nil {
		return true
	}
	owner, local, sharded := s.Route(ts)
	if !sharded {
		return true
	}
	if local {
		return false
	}
	return p.name == owner
}

// RefreshAllLinks re-reconciles every subscribed topic's advertisement
// state across all links. The fabric invokes it after each ownership
// epoch change so sharded subscriptions re-register with their new
// owners and drop off the old ones.
func (b *Broker) RefreshAllLinks() {
	b.mu.RLock()
	topics := make([]string, 0, len(b.subs))
	for ts := range b.subs {
		topics = append(topics, ts)
	}
	b.mu.RUnlock()
	for _, ts := range topics {
		b.refreshLinks(ts)
	}
}

// linkByName returns the live broker link with the given name, nil when
// none is connected.
func (b *Broker) linkByName(name string) *peer {
	b.mu.RLock()
	defer b.mu.RUnlock()
	p := b.links[name]
	if p == nil || p.closed.Load() || p.evicted.Load() {
		return nil
	}
	return p
}

// LinkUp reports whether a live broker link with the given name is
// connected (either direction).
func (b *Broker) LinkUp(name string) bool { return b.linkByName(name) != nil }

// LinkNames lists the names of currently connected broker links, both
// dialed and inbound.
func (b *Broker) LinkNames() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.links))
	for name, p := range b.links {
		if !p.closed.Load() && !p.evicted.Load() {
			out = append(out, name)
		}
	}
	return out
}

// DropLink cancels the link Link maintains under name and closes any
// live link with that name. The fabric calls it when a member leaves or
// fails.
func (b *Broker) DropLink(name string) {
	b.linkMu.Lock()
	if stop, ok := b.linkDials[name]; ok {
		close(stop)
		delete(b.linkDials, name)
	}
	b.linkMu.Unlock()
	if p := b.linkByName(name); p != nil {
		p.closed.Store(true)
		p.out.beginClose()
		p.conn.Close()
	}
}

// plan is the plan stage of the publish pipeline, the fabric's shard
// decision (PROTOCOL.md §3.9): one ownership lookup settles how much
// admission the envelope still owes this broker, whether it persists
// here, and where it goes.
//
//	topic is                         admission   persist  owner hop  fan-out
//	unsharded, or owned here         full        yes      —          everyone
//	owned elsewhere, and arrives
//	  over the owner's link          dedupe+TTL  no       —          local subs, clients
//	  with the owner's link up       full        origin   link       local subs, clients
//	  with the owner's link down     full        yes      —          everyone
//
// Fan-in (from the owner): the owner already admitted, guard-verified
// and persisted the envelope, so after duplicate/TTL suppression it goes
// to local subscribers and client peers — never back over links, which
// is what keeps fabric routing loop-free in one hop.
//
// Forward (link up): full admission runs here — the client's violations
// are scored at its own ingress broker, and a client-forbidden publish
// cannot be laundered to the owner under the link's broker principal.
// The envelope persists at its origin, the broker where it entered the
// fabric (crash-proofing the one hop to the owner — see the fabric
// handoff replay), and is delivered to local subscribers directly:
// admission recorded its ID, so the owner's fan-back over this same link
// would be suppressed as a duplicate, and co-located subscribers would
// otherwise never hear topics owned by another shard.
//
// No route (link down: fabric still assembling, or mid-rebalance): the
// broker degrades to the pre-fabric flood plan rather than drop, and
// counts broker_fabric_no_route_total.
//
// A handoff replay owes no admission and never persists (this broker did
// both when the envelope was first published); it follows the current
// owner — local fan-out, or the owner hop — and ok=false drops it when
// the topic is unsharded or the owner unreachable.
func (b *Broker) plan(from *peer, ts string, replay bool) (pl plan, ok bool) {
	var owner string
	local, sharded := true, false
	if s := b.shardingOf(); s != nil {
		owner, local, sharded = s.Route(ts)
	}
	switch {
	case replay && (!sharded || local):
		return plan{admission: admitNone}, sharded
	case !sharded || local:
		return plan{persist: true}, true
	case from != nil && from.isBroker && from.name == owner:
		return plan{admission: admitFanIn, skipBrokers: true}, true
	}
	link := b.linkByName(owner)
	switch {
	case link == nil:
		mFabricNoRoute.Inc()
		return plan{persist: true}, !replay
	case replay:
		return plan{admission: admitNone, owner: link, skipBrokers: true}, true
	}
	return plan{persist: from == nil || !from.isBroker, owner: link, skipBrokers: true}, true
}

// ReforwardSharded re-routes one durably persisted sharded envelope
// after an ownership change (the fabric's handoff replay): this broker
// admitted and persisted it at origin, so it re-enters the pipeline
// owing neither and goes straight to the current owner — or into local
// fan-out when this broker has become the owner. Duplicates the old
// owner had already fanned out are absorbed downstream by the per-broker
// ID rings and the trackers' per-trace timestamp dedupe. Reports whether
// the envelope had somewhere to go.
func (b *Broker) ReforwardSharded(env *message.Envelope) bool {
	one := [1]inbound{{env: env}}
	b.publish(nil, one[:], true)
	return one[0].env != nil
}
