// Command bench is the repository's one ruler: it drives the real
// pipeline (traced entity -> hosting broker + trace manager -> guard,
// durable log, routing, egress -> links or fabric -> tracker verify ->
// availability ledger) over loopback TCP on four workloads and prints
// every end-to-end and per-layer metric by name. See README.md here.
//
//	go run ./bench                     all workloads, end-to-end metrics
//	go run ./bench -trace              also the per-layer metrics
//	go run ./bench -sets 3             repeatability of the end-to-end metrics
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                   one run; the last line is its JSON result
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxFailedShare is the share of emissions that may fail before a run
// counts as failed.
const maxFailedShare = 0.001

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sets     int
	out      string
	// child marks the process that runs one workload; tmp is the parent's
	// scratch dir.
	child bool
	tmp   string
	// spin marks an idle-priority spinner (spin.go).
	spin bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload and end with its JSON result line")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 24, "measured seconds per run, split evenly between the paced and the saturated phase")
	fs.BoolVar(&o.trace, "trace", false, "traced run: record spans and report the per-layer metrics")
	fs.IntVar(&o.sets, "sets", 1, "run the suite this many times and report the spread of every end-to-end metric")
	fs.StringVar(&o.out, "out", "", "directory for the spans of traced runs (nothing is written without it)")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	fs.StringVar(&o.tmp, "tmp", "", "internal: scratch directory")
	fs.BoolVar(&o.spin, "spin", false, "internal: keep a CPU from idling, at the lowest priority")
	if err := fs.Parse(splitBoolValue(args, "trace")); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds < 2 {
		return o, errors.New("-seconds must be at least 2: both phases run for at least one slice")
	}
	if o.sets < 1 {
		return o, errors.New("-sets must be at least 1")
	}
	if o.workload != "" {
		if _, ok := findWorkload(o.workload); !ok {
			return o, fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	return o, nil
}

// splitBoolValue lets a boolean flag be written "--name 1" as well as
// "-name": the flag package would read the detached value as a
// positional argument and stop parsing.
func splitBoolValue(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if o.spin {
		os.Exit(spinMain())
	}
	if o.child {
		os.Exit(childMain(o))
	}
	os.Exit(parentMain(o))
}

func maxProcs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// childMain runs one workload in this process and prints every metric
// it measured, then the result line holding all of them.
func childMain(o options) int {
	runtime.GOMAXPROCS(maxProcs())
	stopSpinners, err := startSpinners()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: spinners:", err)
		return 1
	}
	defer stopSpinners()
	w, _ := findWorkload(o.workload)
	half := time.Duration(o.seconds) * time.Second / 2
	res, err := runWorkload(runConfig{
		w: w, seed: o.seed, paced: half, sat: half,
		traced: o.trace, tmpDir: o.tmp, outDir: o.out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	// The line holds every metric this run measured (a traced run
	// measures the per-layer ones too); the parent picks the set its
	// caller asked for.
	var defs []metricDef
	fmt.Printf("%s: attempted %d, failed %d\n", res.Workload, res.Attempted, res.Failed)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		v, ok := res.Values[d.name]
		if !ok {
			continue
		}
		defs = append(defs, d)
		fmt.Printf("  %-40s %14.4f %-6s", d.name, v, d.unit)
		if n, ok := res.Samples[d.name]; ok {
			fmt.Printf(" n=%d", n)
		}
		fmt.Println()
	}
	for _, p := range res.Problems {
		fmt.Printf("PROBLEM %s: %s\n", res.Workload, p)
	}
	fmt.Println(res.line(defs))
	if !res.Correct {
		return 1
	}
	return 0
}

// parentMain runs every requested workload in a fresh child of this
// binary (clean obs.Default, heap and ports) under a watchdog.
func parentMain(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Scratch stays inside the checkout, in the benchmark's own directory
	// (bench/.gitignore names it): durable logs must not land outside.
	tmp, err := os.MkdirTemp("bench", ".tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	if tmp, err = filepath.Abs(tmp); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	p := &parent{o: o, self: self, tmp: tmp}
	printHeader(o)

	if o.workload != "" {
		// One run: the last line is its result, over the metric set the
		// contract assigns to traced and untraced runs.
		w, _ := findWorkload(o.workload)
		res := p.run(w, o.seed, o.trace)
		set := endToEnd
		if o.trace {
			set = perLayer
		}
		fmt.Println(res.line(set))
		if !res.Correct || res.failedShare() > maxFailedShare {
			return 1
		}
		return 0
	}
	return p.suite()
}

type parent struct {
	o    options
	self string
	tmp  string
}

func (r *result) failedShare() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

// run executes one workload in a child, prints what the child printed
// but for its result line, and returns the result. A child that stalls
// past the deadline is killed and reported as wholly failed, never
// waited for.
func (p *parent) run(w workload, seed int64, traced bool) *result {
	// Set-up, drains, call timings and a slow neighbour fit in the
	// allowance; the contract's cap on one run is 180 s.
	deadline := time.Duration(p.o.seconds)*time.Second + 90*time.Second
	if deadline > 170*time.Second {
		deadline = 170 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	args := []string{"-child", "-workload", w.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(p.o.seconds), "-tmp", p.tmp}
	if traced {
		args = append(args, "-trace")
		if p.o.out != "" {
			args = append(args, "-out", p.o.out)
		}
	}
	cmd := exec.CommandContext(ctx, p.self, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	err := cmd.Run()

	text := strings.TrimRight(out.String(), "\n")
	why := fmt.Sprintf("killed by the watchdog after %v", deadline)
	if ctx.Err() == nil {
		cut := strings.LastIndexByte(text, '\n') + 1
		res, perr := parseLine(w.name, text[cut:])
		if perr == nil {
			fmt.Print(text[:cut])
			return res
		}
		why = fmt.Sprintf("no result (%v)", err)
	}
	res := stalled(w.name, why)
	if text != "" {
		fmt.Println(text)
	}
	for _, pr := range res.Problems {
		fmt.Printf("PROBLEM %s: %s\n", w.name, pr)
	}
	return res
}

// suite runs every workload o.sets times (odd sets in reverse order, so
// a position effect shows as spread) and summarises.
func (p *parent) suite() int {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	overhead := map[string]float64{}
	bad := 0
	for set := 0; set < p.o.sets; set++ {
		order := append([]workload(nil), workloads...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			seed := p.o.seed + int64(set)
			res := p.run(w, seed, false)
			if !res.Correct || res.failedShare() > maxFailedShare {
				bad++
			}
			for _, d := range endToEnd {
				values[key{w.name, d.name}] = append(values[key{w.name, d.name}], res.Values[d.name])
			}
			if p.o.trace && set == 0 {
				traced := p.run(w, seed, true)
				if !traced.Correct {
					bad++
				}
				overhead[w.name] = 1 - ratio(traced.Values["traces_per_s"], res.Values["traces_per_s"])
			}
		}
	}

	fmt.Printf("\nSummary over %d set(s): min / median / max, spread = (max-min)/median against the bound\n", p.o.sets)
	for _, w := range workloads {
		fmt.Println(w.name)
		for _, d := range endToEnd {
			vals := append([]float64(nil), values[key{w.name, d.name}]...)
			sort.Float64s(vals)
			lo, hi, mid := vals[0], vals[len(vals)-1], median(vals)
			verdict := ""
			if p.o.sets > 1 {
				spread := ratio(hi-lo, mid)
				verdict = fmt.Sprintf("  spread %.3f bound %.2f", spread, d.bound)
				if spread > d.bound {
					verdict += "  OVER"
				}
			}
			fmt.Printf("  %-24s %12.4f %12.4f %12.4f %-4s%s\n", d.name, lo, mid, hi, d.unit, verdict)
		}
		if oh, ok := overhead[w.name]; ok {
			fmt.Printf("  %-24s %12.4f ratio (1 - traced/untraced traces_per_s)\n", "trace.overhead_share", oh)
		}
	}
	if bad > 0 {
		fmt.Printf("FAILED: %d run(s) were incorrect or failed more than %.3f of their emissions\n", bad, maxFailedShare)
		return 1
	}
	return 0
}

// printHeader records the environment a number was measured in.
func printHeader(o options) {
	host, _ := os.Hostname()
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.TrimSpace(string(b))
	}
	half := time.Duration(o.seconds) * time.Second / 2
	fmt.Printf("bench: host=%s nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		host, runtime.NumCPU(), maxProcs(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit())
	fmt.Printf("bench: seed=%d paced=%v saturated=%v slices=%v setups=%d spinners=%d loadavg=%s\n",
		o.seed, half, half, sliceLen, setups, runtime.NumCPU(), load)
}

// commit asks git for the checked-out revision; a checkout that is not
// a repository has none.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
