package main

import (
	"flag"
	"strings"
	"testing"
)

// feature holds, for each needs flag of flagNeeds, a value turning its
// feature off and one turning it on.
var feature = map[string][2]string{
	"log-dir":            {"", "/var/lib/brokerd"},
	"fabric":             {"false", "true"},
	"connect":            {"", "127.0.0.1:7100"},
	"pub-rate":           {"0", "100"},
	"flight":             {"0", "4096"},
	"telemetry-interval": {"0s", "1s"},
}

// parse parses args against brokerd's own flags (not the test binary's),
// each reset to its default first, and applies checkFlags.
func parse(t *testing.T, args ...string) error {
	t.Helper()
	fs := flag.NewFlagSet("brokerd", flag.ContinueOnError)
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return
		}
		if err := f.Value.Set(f.DefValue); err != nil {
			t.Fatal(err)
		}
		fs.Var(f.Value, f.Name, f.Usage)
	})
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return checkFlags(fs)
}

// TestFlagNeeds walks the dependency table: a tuning flag set explicitly
// — even to its default — is refused, naming both flags, while its
// feature is off, and accepted once it is on; a conflict is the reverse.
func TestFlagNeeds(t *testing.T) {
	for _, d := range flagNeeds {
		values, ok := feature[d.needs]
		if flag.Lookup(d.needs) == nil || !ok {
			t.Fatalf("row needing -%s names an unknown flag or feature", d.needs)
		}
		for _, name := range d.flags {
			f := flag.Lookup(name)
			if f == nil {
				t.Fatalf("row needing -%s names unknown flag -%s", d.needs, name)
			}
			tuned := "-" + name + "=" + f.DefValue
			bad, good := parse(t, tuned, "-"+d.needs+"="+values[0]), parse(t, tuned, "-"+d.needs+"="+values[1])
			if d.conflict {
				bad, good = good, bad
			}
			if bad == nil || !strings.Contains(bad.Error(), "-"+name) || !strings.Contains(bad.Error(), "-"+d.needs) {
				t.Errorf("-%s against -%s: error %v, want one naming both flags", name, d.needs, bad)
			}
			if good != nil {
				t.Errorf("-%s against -%s: consistent flags refused: %v", name, d.needs, good)
			}
		}
	}
	if err := parse(t); err != nil {
		t.Errorf("defaults refused: %v", err)
	}
	// A feature switched off explicitly, with nothing tuning it, is fine.
	if err := parse(t, "-flight=0", "-telemetry-interval=0"); err != nil {
		t.Errorf("features off refused: %v", err)
	}
	// The availability ledger rides telemetry: an SLO without it is moot.
	if err := parse(t, "-slo-target", "0.99", "-telemetry-interval", "0"); err == nil ||
		!strings.Contains(err.Error(), "has no effect") {
		t.Errorf("-slo-target without telemetry: error %v, want \"has no effect\"", err)
	}
	// Setting a tuning flag alone, with its feature off by default, is not.
	if err := parse(t, "-log-fsync=always"); err == nil {
		t.Error("-log-fsync without -log-dir accepted")
	}
}
