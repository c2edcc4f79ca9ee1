package tracectl

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"entitytrace/internal/avail"
	"entitytrace/internal/message"
)

// FetchAvail queries the /avail admin endpoint of every configured
// admin base URL (trackers and brokers both serve it), skipping
// unreachable ones; it fails only when no endpoint answered. This is
// the pull-based alternative to TopAssembler.Avail for nodes whose
// ledgers do not ride a telemetry snapshot (e.g. trackers).
func (c *Client) FetchAvail() ([]*message.AvailabilityDigest, error) {
	latest := make(map[string]*message.AvailabilityDigest)
	var errs []string
	for _, a := range c.Admins {
		u := strings.TrimSuffix(a, "/") + "/avail"
		ad, err := fetchDigest(c.httpClient(), u)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		if cur, ok := latest[ad.Reporter]; !ok || ad.AtNanos >= cur.AtNanos {
			latest[ad.Reporter] = ad
		}
	}
	if len(latest) == 0 {
		if len(errs) > 0 {
			return nil, fmt.Errorf("tracectl: no admin endpoint answered: %s", strings.Join(errs, "; "))
		}
		return nil, fmt.Errorf("tracectl: no admin endpoints configured")
	}
	return sortDigests(latest), nil
}

func fetchDigest(hc *http.Client, u string) (*message.AvailabilityDigest, error) {
	resp, err := hc.Get(u)
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
	return avail.ParseDigest(body)
}

func sortDigests(latest map[string]*message.AvailabilityDigest) []*message.AvailabilityDigest {
	names := make([]string, 0, len(latest))
	for n := range latest {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*message.AvailabilityDigest, 0, len(names))
	for _, n := range names {
		out = append(out, latest[n])
	}
	return out
}

// RenderAvailBoard renders availability digests as the fleet board: one
// section per reporter with per-entity state, uptime bars per window,
// error-budget position, and detection latency, followed by a
// fleet-wide "slowest detections" ranking.
func RenderAvailBoard(w io.Writer, digests []*message.AvailabilityDigest) {
	if len(digests) == 0 {
		fmt.Fprintln(w, "no availability digests observed")
		return
	}
	type slow struct {
		entity, reporter string
		maxNanos         int64
	}
	var slowest []slow
	for _, d := range digests {
		fmt.Fprintf(w, "reporter %s  entities=%d  at=%s\n",
			d.Reporter, len(d.Rows),
			time.Unix(0, d.AtNanos).UTC().Format(time.RFC3339Nano))
		for i, row := range d.Rows {
			branch := "├─"
			if i == len(d.Rows)-1 {
				branch = "└─"
			}
			fmt.Fprintf(w, "  %s %-20s %-8s", branch, row.Entity, avail.State(row.State))
			fmt.Fprintf(w, " 5m %s  1h %s  24h %s",
				uptimeBar(row.Uptime5m), uptimeCell(row.Uptime1h), uptimeCell(row.Uptime24h))
			if row.BudgetRemaining >= 0 {
				fmt.Fprintf(w, "  budget %s burn %.2f", uptimeBar(row.BudgetRemaining), row.BurnRate)
				if row.Breaches > 0 {
					fmt.Fprintf(w, " breaches=%d", row.Breaches)
				}
			}
			if row.DetectLastNanos > 0 || row.DetectMaxNanos > 0 {
				fmt.Fprintf(w, "  ttd %s/%s",
					time.Duration(row.DetectLastNanos).Round(time.Microsecond),
					time.Duration(row.DetectMaxNanos).Round(time.Microsecond))
			}
			fmt.Fprintf(w, "  trans=%d flaps=%d down=%s",
				row.Transitions, row.Flaps,
				time.Duration(row.DowntimeNanos).Round(time.Millisecond))
			if row.MTBFNanos > 0 {
				fmt.Fprintf(w, " mtbf=%s", time.Duration(row.MTBFNanos).Round(time.Millisecond))
			}
			if row.MTTRNanos > 0 {
				fmt.Fprintf(w, " mttr=%s", time.Duration(row.MTTRNanos).Round(time.Millisecond))
			}
			fmt.Fprintln(w)
			if row.DetectMaxNanos > 0 {
				slowest = append(slowest, slow{row.Entity, d.Reporter, row.DetectMaxNanos})
			}
		}
	}
	if len(slowest) > 0 {
		sort.Slice(slowest, func(i, j int) bool { return slowest[i].maxNanos > slowest[j].maxNanos })
		if len(slowest) > 5 {
			slowest = slowest[:5]
		}
		fmt.Fprintln(w, "slowest detections:")
		for i, s := range slowest {
			fmt.Fprintf(w, "  %d. %-20s max=%s (seen by %s)\n",
				i+1, s.entity, time.Duration(s.maxNanos).Round(time.Microsecond), s.reporter)
		}
	}
}

// RenderAvailJSON emits the digests as one indented JSON document (the
// machine-readable form of RenderAvailBoard).
func RenderAvailJSON(w io.Writer, digests []*message.AvailabilityDigest) error {
	if digests == nil {
		digests = []*message.AvailabilityDigest{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(digests)
}

// uptimeBar renders a ratio in [0,1] as a ten-cell bar plus percentage;
// a negative ratio means the window has no observations yet.
func uptimeBar(ratio float64) string {
	if ratio < 0 {
		return "[----------]   n/a"
	}
	if ratio > 1 {
		ratio = 1
	}
	filled := int(ratio*10 + 0.5)
	return fmt.Sprintf("[%s%s] %5.1f%%",
		strings.Repeat("█", filled), strings.Repeat("░", 10-filled), ratio*100)
}

// uptimeCell is the compact percentage-only form used for the wider
// windows, keeping each board line readable.
func uptimeCell(ratio float64) string {
	if ratio < 0 {
		return "  n/a"
	}
	if ratio > 1 {
		ratio = 1
	}
	return fmt.Sprintf("%5.1f%%", ratio*100)
}
