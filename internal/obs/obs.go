// Package obs is the always-on observability layer: a lock-cheap metrics
// registry (atomic counters, gauges, fixed-bucket latency histograms),
// the output contract of the log/slog loggers every component logs
// through (a ts key, secret redaction), and HTTP exposure for daemons
// (/metrics, /healthz, /debug/pprof). Every hot-path component
// (transport, broker routing, envelope crypto, the trace manager) reports
// into the package-level Default registry so a single endpoint can
// reconstruct the paper's per-hop cost breakdown (§5) on a live system.
//
// The package depends only on the standard library and internal/stats.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
	// up is the same-named counter of the parent registry when this one
	// belongs to a Child, nil otherwise: every add lands in both.
	up *Counter
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n; a nil counter discards it.
func (c *Counter) Add(n uint64) {
	for ; c != nil; c = c.up {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (peer counts, session counts).
type Gauge struct {
	v  atomic.Int64
	up *Gauge // the parent registry's same-named gauge, as Counter.up
}

// Set stores the value; a Child's gauge moves its parent's by the change.
func (g *Gauge) Set(v int64) {
	if old := g.v.Swap(v); g.up != nil {
		g.up.Add(v - old)
	}
}

// Add increments (or, negative n, decrements) the gauge; a nil gauge
// discards it.
func (g *Gauge) Add(n int64) {
	for ; g != nil; g = g.up {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry holds named metrics. Lookup is read-locked and metrics cache
// their handle at the call site, so steady-state updates are purely
// atomic; the write lock is only taken on first registration of a name.
type Registry struct {
	parent   *Registry // nil except for a Child
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the instrumented packages report
// into and the daemons expose over /metrics.
var Default = NewRegistry()

// Child returns an empty registry scoped to one instance of a component
// (one broker among several in a process): a counter or gauge created on
// it counts for the instance and also into the same-named metric of r,
// so r keeps the sum over instances under the same name while the
// child's Snapshot holds the instance's own share. The parent keeps no
// reference to the child. Histograms of a child stay local to it.
func (r *Registry) Child() *Registry {
	c := NewRegistry()
	c.parent = r
	return c
}

// Counter returns the counter registered under name, creating it on
// first use. Instrumented packages should capture the returned handle in
// a package variable rather than calling Counter per update.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	if r.parent != nil {
		c.up = r.parent.Counter(name)
	}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	if r.parent != nil {
		g.up = r.parent.Gauge(name)
	}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds on first use (nil buckets selects
// DefaultLatencyBuckets). Bounds of an existing histogram are not
// changed.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHistogram(buckets)
	r.hists[name] = h
	return h
}

// WithLabel renders a flat metric name carrying one label, in the
// conventional name{key="value"} form, so related counters (e.g. drop
// reasons) group together in the exposition.
func WithLabel(name, key, value string) string {
	// Escape for the text exposition format, not Go syntax: %q would
	// render non-ASCII and control characters as Go escapes no
	// exposition parser understands.
	return name + "{" + key + `="` + escapeLabelValue(value) + `"}`
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.RUnlock()

	snap := Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for n, c := range counters {
		snap.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		snap.Gauges[n] = g.Value()
	}
	for n, h := range hists {
		snap.Histograms[n] = h.Snapshot()
	}
	return snap
}

// sortedKeys returns map keys in lexical order for stable exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// baseName strips a {label} suffix from a metric name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}
