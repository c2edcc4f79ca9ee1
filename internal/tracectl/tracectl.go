// Package tracectl is the debugging console for the tracing fabric: it
// fetches flight-recorder dumps from broker admin endpoints, renders
// end-to-end waterfalls for a trace ID, tails live flight events, and
// assembles the telemetry snapshots published on the system-telemetry
// topic into a fleet board and a broker map. The cmd/tracectl binary is
// a thin flag wrapper over this package so every operation is testable
// in-process.
package tracectl

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"entitytrace/internal/obs"
)

// Client talks to broker admin endpoints (the /trace handler).
type Client struct {
	// Admins are admin base URLs, e.g. http://127.0.0.1:9100.
	Admins []string
	// HTTP overrides the HTTP client (default: 5 s timeout).
	HTTP *http.Client
	// JSON switches the fetch-based subcommands (trace, tail) from the
	// text view to machine-readable JSON output.
	JSON bool
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 5 * time.Second}
}

// fetch retrieves one flight dump from an admin base URL with the given
// query string.
func (c *Client) fetch(admin, query string) (*obs.FlightDump, error) {
	u := strings.TrimSuffix(admin, "/") + "/trace"
	if query != "" {
		u += "?" + query
	}
	resp, err := c.httpClient().Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("tracectl: %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	return obs.ParseFlightDump(body)
}

// FetchAll queries every admin endpoint with the same filter, skipping
// unreachable ones. It fails only when no endpoint answered.
func (c *Client) FetchAll(query string) ([]*obs.FlightDump, error) {
	var dumps []*obs.FlightDump
	var errs []string
	for _, a := range c.Admins {
		d, err := c.fetch(a, query)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		dumps = append(dumps, d)
	}
	if len(dumps) == 0 {
		if len(errs) > 0 {
			return nil, fmt.Errorf("tracectl: no admin endpoint answered: %s", strings.Join(errs, "; "))
		}
		return nil, fmt.Errorf("tracectl: no admin endpoints configured")
	}
	return dumps, nil
}

// nodeEvent pairs a flight event with the node that recorded it, for
// cross-broker merged views.
type nodeEvent struct {
	Node string          `json:"node"`
	Ev   obs.FlightEvent `json:"event"`
}

// mergeEvents flattens dumps into one timestamp-ordered list.
func mergeEvents(dumps []*obs.FlightDump) []nodeEvent {
	var out []nodeEvent
	for _, d := range dumps {
		for _, ev := range d.Events {
			out = append(out, nodeEvent{Node: d.Node, Ev: ev})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ev.AtNanos < out[j].Ev.AtNanos })
	return out
}

// formatEvent renders one event line relative to a base timestamp.
func formatEvent(w io.Writer, node string, ev obs.FlightEvent, base int64) {
	at := time.Duration(ev.AtNanos - base)
	fmt.Fprintf(w, "  %+11s  %-8s %-10s", at.Round(time.Microsecond), node, ev.Kind)
	if ev.Peer != "" {
		fmt.Fprintf(w, " peer=%s", ev.Peer)
	}
	if ev.Kind == obs.FlightRoute {
		fmt.Fprintf(w, " remote=%d local=%d", ev.N, ev.N2)
	} else if ev.N != 0 {
		fmt.Fprintf(w, " n=%d", ev.N)
	}
	if ev.Cache != "" {
		fmt.Fprintf(w, " cache=%s", ev.Cache)
	}
	if ev.DurNanos != 0 {
		fmt.Fprintf(w, " dur=%s", time.Duration(ev.DurNanos).Round(time.Microsecond))
	}
	if ev.Reason != "" {
		fmt.Fprintf(w, " reason=%q", ev.Reason)
	}
	// The trace ID makes tail lines feed `tracectl trace <uuid>` directly.
	if ev.Trace != (obs.FlightTrace{}) {
		fmt.Fprintf(w, " trace=%s", ev.Trace)
	}
	if ev.Topic != "" {
		fmt.Fprintf(w, " topic=%s", ev.Topic)
	}
	fmt.Fprintln(w)
}

// Waterfall fetches the flight events for one trace ID from every admin
// endpoint and renders the merged entity→broker(s)→tracker flow: the
// chronological event list, the reconstructed path, and skew-normalized
// per-stage latencies (within-broker processing vs inter-broker wire
// legs). With Client.JSON set, the assembled waterfall is emitted as a
// JSON document instead of the text view.
func (c *Client) Waterfall(w io.Writer, id string) error {
	t, err := obs.ParseFlightTrace(id)
	if err != nil {
		return err
	}
	dumps, err := c.FetchAll("id=" + url.QueryEscape(t.String()))
	if err != nil {
		return err
	}
	if c.JSON {
		return RenderWaterfallJSON(w, t, dumps)
	}
	return RenderWaterfall(w, t, dumps)
}

// Waterfall is the assembled view of one trace across brokers: the
// reconstructed path, the merged event list, and the skew-normalized
// stage latencies. It is what both the text and JSON waterfall
// renderers consume.
type Waterfall struct {
	Trace  string        `json:"trace"`
	Path   []string      `json:"path"`
	Events []nodeEvent   `json:"events"`
	Stages []obs.Segment `json:"stages,omitempty"`
	// TotalNanos and SkewNanos mirror the obs.Assembly totals.
	TotalNanos int64 `json:"total_nanos"`
	SkewNanos  int64 `json:"skew_nanos,omitempty"`
}

// AssembleWaterfall filters the dumps down to trace t and builds the
// merged waterfall (the testable core of the trace subcommand).
func AssembleWaterfall(t obs.FlightTrace, dumps []*obs.FlightDump) (*Waterfall, error) {
	events := mergeEvents(dumps)
	kept := events[:0]
	for _, ne := range events {
		if ne.Ev.Trace == t {
			kept = append(kept, ne)
		}
	}
	events = kept
	if len(events) == 0 {
		return nil, fmt.Errorf("tracectl: no flight events for trace %s (sampled out, or ring overwritten)", t)
	}

	// Per-broker first/last event times, in traversal (first-seen) order.
	type window struct {
		node        string
		first, last int64
	}
	var order []*window
	byNode := make(map[string]*window)
	for _, ne := range events {
		win, ok := byNode[ne.Node]
		if !ok {
			win = &window{node: ne.Node, first: ne.Ev.AtNanos, last: ne.Ev.AtNanos}
			byNode[ne.Node] = win
			order = append(order, win)
			continue
		}
		if ne.Ev.AtNanos < win.first {
			win.first = ne.Ev.AtNanos
		}
		if ne.Ev.AtNanos > win.last {
			win.last = ne.Ev.AtNanos
		}
	}

	// Path endpoints: the entity is the non-broker ingress peer on the
	// first broker; the tracker-side client is the egress peer on the
	// last broker.
	path := make([]string, 0, len(order)+2)
	if first := order[0]; true {
		for _, ne := range events {
			if ne.Node == first.node && ne.Ev.Kind == obs.FlightIngress && ne.Ev.Peer != "" && ne.Ev.Peer != "local" {
				path = append(path, ne.Ev.Peer)
				break
			}
		}
	}
	for _, win := range order {
		path = append(path, win.node)
	}
	lastNode := order[len(order)-1].node
	for i := len(events) - 1; i >= 0; i-- {
		ne := events[i]
		if ne.Node == lastNode && ne.Ev.Kind == obs.FlightEgress && ne.Ev.Peer != "" {
			path = append(path, ne.Ev.Peer)
			break
		}
	}

	// Stage attribution: each broker's first/last event bound its local
	// processing; the gap to the next broker's first event is the wire
	// leg. Assemble normalizes inter-broker clock skew.
	var hops []obs.HopRecord
	for _, win := range order {
		hops = append(hops, obs.HopRecord{Node: win.node, AtNanos: win.first})
		if win.last != win.first {
			hops = append(hops, obs.HopRecord{Node: win.node, AtNanos: win.last})
		}
	}
	asm := obs.Assemble(hops)
	return &Waterfall{
		Trace:      t.String(),
		Path:       path,
		Events:     events,
		Stages:     asm.Segments,
		TotalNanos: asm.TotalNanos,
		SkewNanos:  asm.SkewNanos,
	}, nil
}

// RenderWaterfall renders the waterfall for trace t from the given
// dumps as the human-readable text view.
func RenderWaterfall(w io.Writer, t obs.FlightTrace, dumps []*obs.FlightDump) error {
	wf, err := AssembleWaterfall(t, dumps)
	if err != nil {
		return err
	}
	brokers := make(map[string]bool)
	for _, ne := range wf.Events {
		brokers[ne.Node] = true
	}
	fmt.Fprintf(w, "trace %s — %d events across %d broker(s)\n", wf.Trace, len(wf.Events), len(brokers))
	fmt.Fprintf(w, "path: %s\n", strings.Join(wf.Path, " → "))
	base := wf.Events[0].Ev.AtNanos
	for _, ne := range wf.Events {
		formatEvent(w, ne.Node, ne.Ev, base)
	}
	if len(wf.Stages) > 0 {
		fmt.Fprintln(w, "stages:")
		for _, seg := range wf.Stages {
			label := seg.From + " → " + seg.To
			if seg.From == seg.To {
				label = "within " + seg.From
			}
			fmt.Fprintf(w, "  %-24s %s\n", label, time.Duration(seg.Nanos).Round(time.Microsecond))
		}
		fmt.Fprintf(w, "  %-24s %s", "total", time.Duration(wf.TotalNanos).Round(time.Microsecond))
		if wf.SkewNanos != 0 {
			fmt.Fprintf(w, " (skew clamped: %s)", time.Duration(wf.SkewNanos).Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Tail polls every admin endpoint and prints newly recorded flight
// events in one merged, timestamp-ordered stream. It runs rounds poll
// rounds spaced by interval (rounds <= 0 means poll once) and returns
// the number of events printed. With Client.JSON set, each event is
// printed as one JSON object per line (node + event) instead of the
// text rendering.
func (c *Client) Tail(w io.Writer, interval time.Duration, rounds int) (int, error) {
	if rounds <= 0 {
		rounds = 1
	}
	since := make(map[string]uint64)
	printed := 0
	for round := 0; round < rounds; round++ {
		if round > 0 {
			time.Sleep(interval)
		}
		var fresh []*obs.FlightDump
		for _, a := range c.Admins {
			d, err := c.fetch(a, fmt.Sprintf("since=%d", since[a]))
			if err != nil {
				continue
			}
			if d.Head < since[a] {
				// The node's flight head moved backwards: it restarted
				// and our cursor is from the old recorder's sequence
				// space, so every future poll would return nothing.
				// Resync from the beginning of the new recorder.
				if d, err = c.fetch(a, "since=0"); err != nil {
					continue
				}
			}
			since[a] = d.Head
			fresh = append(fresh, d)
		}
		if len(fresh) == 0 && printed == 0 && round == rounds-1 {
			return 0, fmt.Errorf("tracectl: no admin endpoint answered")
		}
		events := mergeEvents(fresh)
		if len(events) == 0 {
			continue
		}
		base := events[0].Ev.AtNanos
		for _, ne := range events {
			if c.JSON {
				if err := json.NewEncoder(w).Encode(ne); err != nil {
					return printed, err
				}
			} else {
				formatEvent(w, ne.Node, ne.Ev, base)
			}
			printed++
		}
	}
	return printed, nil
}

// RenderWaterfallJSON emits the assembled waterfall as one indented
// JSON document.
func RenderWaterfallJSON(w io.Writer, t obs.FlightTrace, dumps []*obs.FlightDump) error {
	wf, err := AssembleWaterfall(t, dumps)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(wf)
}
