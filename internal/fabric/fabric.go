// Package fabric turns a set of individually started brokers into a
// self-assembling, sharded fabric (PROTOCOL.md §3.9). Each broker runs
// one Fabric: a gossip membership view (anti-entropy over the
// constrained system topic /…/System/Fabric), a consistent-hash
// ownership table partitioning trace topics across the live brokers,
// and a link manager that auto-dials the peers the table needs — no
// hand-wired -link flags. On join, leave or failure the table is
// rebuilt under a new epoch, broker links are reconciled, and recently
// persisted sharded traffic is re-forwarded to the new owners so
// trackers observe no ledger gap.
package fabric

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"entitytrace/internal/backoff"
	"entitytrace/internal/broker"
	"entitytrace/internal/brokerdir"
	"entitytrace/internal/clock"
	"entitytrace/internal/durable"
	"entitytrace/internal/message"
	"entitytrace/internal/obs"
	"entitytrace/internal/topic"
	"entitytrace/internal/transport"
)

var (
	mEpochs      = obs.Default.Counter("fabric_epoch_total")
	mGossipSent  = obs.Default.Counter("fabric_gossip_sent_total")
	mGossipRecv  = obs.Default.Counter("fabric_gossip_recv_total")
	mGossipBad   = obs.Default.Counter("fabric_gossip_bad_total")
	mHandoffRecs = obs.Default.Counter("fabric_handoff_records_total")
	// Table-shape gauges, refreshed on every rebuild so registry
	// samplers (the telemetry plane) see the fabric's current shape
	// without calling into it. Process-wide: in multi-broker test
	// processes they track the most recent rebuilder.
	mMembers       = obs.Default.Gauge("fabric_members")
	mOwnedPerMille = obs.Default.Gauge("fabric_owned_per_mille")
)

// TraceShard is the default ShardFunc: the per-trace derivative class
// topics (/Constrained/Traces/Broker/Publish-Only/<uuid>/<class>) shard
// by their trace-topic UUID, so every derivative class of one entity
// co-locates on the same owner and its ledger stays totally ordered on
// one durable log. Everything else — system topics and unconstrained
// application topics — stays outside the partitioned keyspace and
// floods by subscription as before.
func TraceShard(ts string) (key string, sharded bool) {
	tp, err := topic.Parse(ts)
	if err != nil {
		return "", false
	}
	if !topic.IsTraceDerivative(tp) {
		return "", false
	}
	return tp.Segments()[4], true
}

// Config configures one broker's fabric membership.
type Config struct {
	// Broker is the local broker the fabric routes for; its name is the
	// member name. Required.
	Broker *broker.Broker
	// Transport dials broker links and is advertised (by TransportName)
	// so peers can dial back. Required for any multi-broker fabric.
	Transport transport.Transport
	// TransportName and Addr are this broker's advertised coordinates.
	TransportName string
	Addr          string
	// Dir is an optional broker-directory client: members register
	// their epoch there and bootstrap peer discovery from List.
	Dir *brokerdir.Client
	// GossipInterval paces heartbeat bumps, gossip publishes and
	// directory polls (default 500ms).
	GossipInterval time.Duration
	// FailAfter is how long a member's heartbeat may stall before it is
	// declared failed (default 5× GossipInterval).
	FailAfter time.Duration
	// Clock abstracts time for tests.
	Clock clock.Clock
	// Log, when set, receives membership and epoch transitions.
	Log *slog.Logger
	// Store, when set, is the broker's durable store; on ownership
	// change the fabric replays the tail of re-owned sharded topics to
	// their new owner (handoff).
	Store *durable.Store
}

// handoffRecords bounds the per-topic replay window of a handoff.
const handoffRecords = 1024

// Fabric is one broker's membership in the sharded fabric. It
// implements broker.Sharding.
type Fabric struct {
	cfg  Config
	b    *broker.Broker
	name string
	clk  clock.Clock
	log  *slog.Logger

	mem   *Membership
	table atomic.Pointer[Table]

	// rebuildMu serializes table rebuilds + handoff (loop goroutine and
	// Close both rebuild).
	rebuildMu sync.Mutex

	// linked tracks the peers this member is currently maintaining
	// links for (loop goroutine only).
	linked map[string]bool

	poke      chan struct{}
	done      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
	unsub     func()
	started   atomic.Bool
	handoffMu sync.Mutex
}

// New builds a fabric member around an existing broker and installs its
// ownership table (epoch 1: self only). Call Start to begin gossiping.
func New(cfg Config) (*Fabric, error) {
	if cfg.Broker == nil {
		return nil, fmt.Errorf("fabric: Config.Broker is required")
	}
	name := cfg.Broker.Name()
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 500 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 5 * cfg.GossipInterval
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	f := &Fabric{
		cfg:    cfg,
		b:      cfg.Broker,
		name:   name,
		clk:    cfg.Clock,
		log:    obs.OrDiscard(cfg.Log).With("fabric", name),
		linked: make(map[string]bool),
		poke:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	f.mem = NewMembership(Row{
		Name:      name,
		Transport: cfg.TransportName,
		Addr:      cfg.Addr,
	}, f.clk.Now())
	f.table.Store(NewTable(1, name, []string{name}, DefaultVNodes, nil))
	f.unsub = f.b.SubscribeLocal(topic.SystemFabric(), f.onGossip)
	f.b.SetSharding(f)
	return f, nil
}

// Route implements broker.Sharding against the current epoch's table.
func (f *Fabric) Route(ts string) (owner string, local, sharded bool) {
	return f.table.Load().Route(ts)
}

// Info implements broker.Sharding.
func (f *Fabric) Info() broker.ShardInfo {
	t := f.table.Load()
	return broker.ShardInfo{
		Epoch:         t.Epoch,
		Members:       len(t.Members()),
		OwnedPerMille: t.OwnedPerMille(),
	}
}

// Epoch returns the current ownership-table epoch.
func (f *Fabric) Epoch() uint64 { return f.table.Load().Epoch }

// Members returns the live member set the current table was built over.
func (f *Fabric) Members() []string { return f.table.Load().Members() }

// Start launches the gossip loop. The first tick runs immediately, so
// a member with a directory learns its peers on the first interval.
func (f *Fabric) Start() {
	if !f.started.CompareAndSwap(false, true) {
		return
	}
	f.wg.Add(1)
	go f.loop()
}

func (f *Fabric) loop() {
	defer f.wg.Done()
	f.tick()
	t := f.clk.NewTimer(f.cfg.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-f.done:
			return
		case <-f.poke:
			f.rebuild()
		case <-t.C():
			f.tick()
			t.Reset(f.cfg.GossipInterval)
		}
	}
}

// tick is one gossip round: advance the local heartbeat, pull
// directory hints, fail stalled members, reconcile the table and
// links, then push our view to the fabric and the directory.
func (f *Fabric) tick() {
	now := f.clk.Now()
	f.mem.Bump(now)
	changed := false
	if f.cfg.Dir != nil {
		if entries, err := f.cfg.Dir.List(); err == nil {
			for _, e := range entries {
				if f.mem.Hint(e.Name, e.Transport, e.Addr, now) {
					changed = true
				}
			}
		}
	}
	if f.mem.Sweep(now, f.cfg.FailAfter) {
		changed = true
	}
	if changed {
		f.rebuild()
	} else {
		f.ensureLinks()
	}
	f.gossip()
	if f.cfg.Dir != nil {
		_ = f.cfg.Dir.RegisterEpoch(f.name, f.cfg.TransportName, f.cfg.Addr, 0, f.Epoch())
	}
}

// rebuild swaps in a new ownership table if the live member set moved,
// reconciles subscriptions and links against it, and replays the
// durable tail of any re-owned sharded topic to its new owner.
func (f *Fabric) rebuild() {
	f.rebuildMu.Lock()
	defer f.rebuildMu.Unlock()
	live := f.mem.Live()
	old := f.table.Load()
	if equalStrings(live, old.Members()) {
		f.ensureLinks()
		return
	}
	next := NewTable(old.Epoch+1, f.name, live, DefaultVNodes, nil)
	f.table.Store(next)
	mEpochs.Inc()
	mMembers.Set(int64(len(live)))
	mOwnedPerMille.Set(int64(next.OwnedPerMille()))
	f.log.Info("fabric epoch",
		"epoch", next.Epoch,
		"members", len(live),
		"owned_permille", next.OwnedPerMille())
	f.ensureLinks()
	// Subscriptions advertised to links depend on ownership: re-sync
	// every exact sharded subscription against the new owners.
	f.b.RefreshAllLinks()
	f.handoff(old, next)
}

// linkRetry paces the redial of every link the fabric maintains.
var linkRetry = backoff.Config{Initial: 50 * time.Millisecond, Max: 2 * time.Second}

// ensureLinks reconciles maintained broker links with the dialable
// member set (confirmed members plus unconfirmed directory hints — the
// first dial bootstraps the gossip that confirms them). Dial direction
// is deterministic — the lexicographically smaller name dials — so
// exactly one side of every pair maintains the link.
func (f *Fabric) ensureLinks() {
	if f.cfg.Transport == nil {
		return
	}
	dialable := f.mem.Dialable()
	known := make(map[string]bool, len(dialable)+1)
	want := make(map[string]bool, len(dialable))
	for _, r := range dialable {
		known[r.Name] = true
		if f.name >= r.Name {
			continue
		}
		want[r.Name] = true
		if !f.linked[r.Name] {
			f.linked[r.Name] = true
			_ = f.b.Link(r.Name, f.cfg.Transport, r.Addr, linkRetry) // fails only on a closed broker
		}
	}
	for m := range f.linked {
		if !want[m] {
			delete(f.linked, m)
			f.b.DropLink(m)
		}
	}
	// Drop inbound links from members that failed or left, so a
	// half-open connection cannot keep receiving forwards.
	for _, name := range f.b.LinkNames() {
		if !known[name] && !want[name] {
			f.b.DropLink(name)
		}
	}
}

// gossip publishes the full membership view on the system-fabric topic.
// The topic floods over broker links like any system topic, so every
// member folds in every other member's view within a few intervals.
func (f *Fabric) gossip() {
	rows := f.mem.Rows()
	fg := message.FabricGossip{
		Broker: f.name,
		Epoch:  f.Epoch(),
		Rows:   make([]message.FabricMemberRow, 0, len(rows)),
	}
	for _, r := range rows {
		fg.Rows = append(fg.Rows, message.FabricMemberRow{
			Name:      r.Name,
			Transport: r.Transport,
			Addr:      r.Addr,
			Heartbeat: r.Heartbeat,
			Left:      r.Left,
		})
	}
	env := message.New(message.TypeFabricGossip, topic.SystemFabric(), "", fg.Marshal())
	if err := f.b.Publish(env); err == nil {
		mGossipSent.Inc()
	}
}

// onGossip folds a received membership exchange into the local view.
// It runs on a broker delivery goroutine, so it only merges and pokes;
// the rebuild happens on the fabric loop.
func (f *Fabric) onGossip(env *message.Envelope) {
	if env.Type != message.TypeFabricGossip {
		return
	}
	fg, err := message.UnmarshalFabricGossip(env.Payload)
	if err != nil {
		mGossipBad.Inc()
		return
	}
	if fg.Broker == f.name {
		return
	}
	mGossipRecv.Inc()
	rows := make([]Row, 0, len(fg.Rows))
	for _, r := range fg.Rows {
		rows = append(rows, Row{
			Name:      r.Name,
			Transport: r.Transport,
			Addr:      r.Addr,
			Heartbeat: r.Heartbeat,
			Left:      r.Left,
		})
	}
	if f.mem.Merge(rows, f.clk.Now()) {
		select {
		case f.poke <- struct{}{}:
		default:
		}
	}
}

// handoff replays the durable tail of every sharded topic whose owner
// changed between old and next. This broker persisted the records at
// origin (see broker.plan), so replay needs no re-admission; the
// new owner fans them out and downstream dedupe absorbs anything the
// old owner had already delivered. The window is bounded: an owner that
// was down for longer than handoffRecords of traffic is repaired by the
// durable replay protocol, not by handoff.
func (f *Fabric) handoff(old, next *Table) {
	if f.cfg.Store == nil || old == nil {
		return
	}
	f.handoffMu.Lock()
	defer f.handoffMu.Unlock()
	var replayed int
	for _, ts := range f.cfg.Store.Topics() {
		key, sharded := nextShardKey(next, ts)
		if !sharded {
			continue
		}
		if old.ring.Size() > 0 && old.ring.Owner(key) == next.ring.Owner(key) {
			continue
		}
		l := f.cfg.Store.Get(ts)
		if l == nil {
			continue
		}
		head := l.Head()
		if head == 0 {
			continue
		}
		from := uint64(1)
		if head > handoffRecords {
			from = head - handoffRecords + 1
		}
		recs, err := l.ReadFrom(from, handoffRecords, 1<<30)
		if err != nil {
			continue
		}
		for _, rec := range recs {
			env, err := message.Unmarshal(rec.Payload)
			if err != nil {
				continue
			}
			if f.b.ReforwardSharded(env) {
				replayed++
			}
		}
	}
	if replayed > 0 {
		mHandoffRecs.Add(uint64(replayed))
		f.log.Info("fabric handoff", "epoch", next.Epoch, "records", replayed)
	}
}

// nextShardKey resolves the shard key of a stored topic under the
// next table's shard function.
func nextShardKey(next *Table, ts string) (string, bool) {
	return next.shard(ts)
}

// Close leaves the fabric gracefully: the member tombstones itself,
// gossips one final time so peers rebalance immediately instead of
// waiting out FailAfter, hands off its durable tail, deregisters from
// the directory and detaches from the broker.
func (f *Fabric) Close() {
	f.stop(true)
}

// Kill detaches abruptly — no leave gossip, no deregistration — to
// simulate a crash: peers detect the stalled heartbeat and rebalance
// after FailAfter.
func (f *Fabric) Kill() {
	f.stop(false)
}

func (f *Fabric) stop(graceful bool) {
	f.stopOnce.Do(func() {
		close(f.done)
		f.wg.Wait()
		if graceful {
			f.mem.Leave(f.clk.Now())
			f.gossip()
			if f.cfg.Dir != nil {
				_ = f.cfg.Dir.Deregister(f.name)
			}
		}
		f.unsub()
		f.b.SetSharding(nil)
	})
}

// equalStrings reports whether two sorted string slices are equal.
func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
