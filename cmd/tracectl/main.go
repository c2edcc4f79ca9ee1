// Command tracectl is the tracing fabric's debugging console: it renders
// end-to-end waterfalls for a trace ID from the brokers' flight
// recorders, tails live flight events, and assembles the delta-encoded
// snapshots on the system-telemetry topic into a live fleet board
// (`top`), a broker map (`map`: every broker with its links' queue
// depths and offender scores) or the fleet availability board (`avail`:
// the ledger rows each snapshot carries); brokers must run with
// -telemetry-interval > 0. Every subcommand also emits machine-readable
// output with -format json.
//
//	tracectl -admins http://127.0.0.1:7190,http://127.0.0.1:7191 trace <uuid>
//	tracectl -admins http://127.0.0.1:7190 tail [-interval 1s] [-rounds 10]
//	tracectl -broker 127.0.0.1:7100 map [-watch 3s]
//	tracectl -broker 127.0.0.1:7100 avail [-watch 3s]
//	tracectl -admins http://127.0.0.1:7190 avail        (pull /avail instead)
//	tracectl -broker 127.0.0.1:7100 top [-watch 10s] [-interval 1s]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"entitytrace/internal/ident"
	"entitytrace/internal/message"
	"entitytrace/internal/tracectl"
	"entitytrace/internal/transport"
)

func main() {
	var (
		admins        = flag.String("admins", "", "comma-separated admin base URLs (for trace, tail and pull-mode avail)")
		brokerAddr    = flag.String("broker", "", "broker address to subscribe through (for map, avail and top)")
		transportName = flag.String("transport", "tcp", "transport: tcp or udp (for map, avail and top)")
		name          = flag.String("name", "tracectl", "client entity name used on the broker connection (for map, avail and top)")
		watch         = flag.Duration("watch", 3*time.Second, "how long map/avail/top collect snapshots")
		interval      = flag.Duration("interval", time.Second, "tail poll interval")
		rounds        = flag.Int("rounds", 1, "tail poll rounds (1 polls once)")
		format        = flag.String("format", "text", "output format: text or json")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fail("need a subcommand: trace <uuid> | tail | map | avail | top")
	}
	if *format != "text" && *format != "json" {
		fail("unknown -format %q (want text or json)", *format)
	}
	asJSON := *format == "json"
	cl := &tracectl.Client{Admins: splitCSV(*admins), JSON: asJSON}
	// watchFleet assembles the system-telemetry snapshots seen through
	// -broker for -watch, calling onTick (nil-tolerant) every -interval.
	watchFleet := func(onTick func(*tracectl.TopBoard)) *tracectl.TopAssembler {
		tr, err := transport.New(*transportName)
		if err != nil {
			fail("%v", err)
		}
		a := tracectl.NewTopAssembler(nil)
		if err := tracectl.WatchTelemetry(tr, *brokerAddr, ident.EntityID(*name),
			*watch, *interval, a, onTick); err != nil {
			fail("%v", err)
		}
		return a
	}
	switch args[0] {
	case "trace":
		if len(args) != 2 {
			fail("usage: tracectl -admins ... trace <uuid>")
		}
		if len(cl.Admins) == 0 {
			fail("trace needs -admins")
		}
		if err := cl.Waterfall(os.Stdout, args[1]); err != nil {
			fail("%v", err)
		}
	case "tail":
		if len(cl.Admins) == 0 {
			fail("tail needs -admins")
		}
		n, err := cl.Tail(os.Stdout, *interval, *rounds)
		if err != nil {
			fail("%v", err)
		}
		if !asJSON {
			fmt.Printf("tracectl: %d events\n", n)
		}
	case "avail":
		var digests []*message.AvailabilityDigest
		var err error
		switch {
		case *brokerAddr != "":
			digests = watchFleet(nil).Avail()
		case len(cl.Admins) > 0:
			digests, err = cl.FetchAvail()
		default:
			fail("avail needs -broker (watch the telemetry topic) or -admins (pull /avail)")
		}
		if err != nil {
			fail("%v", err)
		}
		if asJSON {
			if err := tracectl.RenderAvailJSON(os.Stdout, digests); err != nil {
				fail("%v", err)
			}
		} else {
			tracectl.RenderAvailBoard(os.Stdout, digests)
		}
	case "map", "top":
		// Two renderings of one board, assembled from one subscription.
		if *brokerAddr == "" {
			fail("%s needs -broker", args[0])
		}
		render := tracectl.RenderTop
		if args[0] == "map" {
			render = tracectl.RenderMap
		}
		var onTick func(*tracectl.TopBoard)
		if args[0] == "top" && !asJSON {
			// Live mode repaints every tick; map and JSON mode stay quiet
			// and emit one board at the end.
			onTick = func(b *tracectl.TopBoard) {
				fmt.Print("\033[H\033[2J")
				render(os.Stdout, b)
			}
		}
		a := watchFleet(onTick)
		if asJSON {
			if err := tracectl.RenderTopJSON(os.Stdout, a.Board()); err != nil {
				fail("%v", err)
			}
		} else {
			render(os.Stdout, a.Board())
		}
	default:
		fail("unknown subcommand %q (want trace|tail|map|avail|top)", args[0])
	}
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracectl: "+format+"\n", args...)
	os.Exit(1)
}
