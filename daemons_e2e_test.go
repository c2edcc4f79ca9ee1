package entitytrace

// End-to-end test of the deployment daemons: builds the real binaries,
// stands up a PKI, a TDN, a broker, a traced entity and a tracker as
// separate OS processes over loopback TCP, and asserts that verified
// traces reach the tracker. This is the closest automated equivalent of
// the paper's multi-machine testbed.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestDaemonsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon e2e in short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin")
	if out, err := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("building daemons: %v\n%s", err, out)
	}
	run := func(name string, args ...string) {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
	}
	// PKI.
	run("ca", "-dir", "pki", "init")
	run("ca", "-dir", "pki", "-bits", "1024", "issue", "tdn-1", "broker-1", "svc-1", "watcher-1")

	// Long-running daemons.
	var daemons []*exec.Cmd
	start := func(name string, args ...string) *os.File {
		t.Helper()
		logPath := filepath.Join(dir, name+".log")
		logFile, err := os.Create(logPath)
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir = dir
		cmd.Stdout = logFile
		cmd.Stderr = logFile
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		daemons = append(daemons, cmd)
		return logFile
	}
	t.Cleanup(func() {
		for _, d := range daemons {
			_ = d.Process.Signal(syscall.SIGTERM)
		}
		for _, d := range daemons {
			done := make(chan struct{})
			go func(c *exec.Cmd) { _ = c.Wait(); close(done) }(d)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				_ = d.Process.Kill()
			}
		}
	})

	waitLog := func(name, needle string, timeout time.Duration) {
		t.Helper()
		path := filepath.Join(dir, name+".log")
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			b, _ := os.ReadFile(path)
			if strings.Contains(string(b), needle) {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		b, _ := os.ReadFile(path)
		t.Fatalf("%s log never contained %q; log:\n%s", name, needle, b)
	}

	tdnAddr := "127.0.0.1:7561"
	brokerAddr := "127.0.0.1:7562"
	start("tdnd", "-pki", "pki", "-identity", "pki/tdn-1.pem", "-listen", tdnAddr)
	waitLog("tdnd", "serving on", 10*time.Second)
	adminAddr := "127.0.0.1:7563"
	start("brokerd", "-pki", "pki", "-identity", "pki/broker-1.pem", "-listen", brokerAddr, "-tdn", tdnAddr,
		"-admin", adminAddr)
	waitLog("brokerd", "serving on", 10*time.Second)
	start("traced", "-pki", "pki", "-identity", "pki/svc-1.pem",
		"-broker", brokerAddr, "-tdn", tdnAddr, "-simulate-load", "-load-interval", "200ms")
	waitLog("traced", "registered", 15*time.Second)
	start("tracker", "-pki", "pki", "-identity", "pki/watcher-1.pem",
		"-broker", brokerAddr, "-tdn", tdnAddr, "-entity", "svc-1", "-classes", "everything")

	// The tracker must discover the topic and then receive verified
	// heartbeats and load traces.
	waitLog("tracker", "discovered trace topic", 15*time.Second)
	waitLog("tracker", "ALLS_WELL", 20*time.Second)
	waitLog("tracker", "LOAD_INFORMATION", 20*time.Second)

	// Every count is on /metrics, under its registry name; the legacy
	// /stats mirror is gone.
	resp, err := http.Get(fmt.Sprintf("http://%s/stats", adminAddr))
	if err != nil {
		t.Fatalf("admin endpoint: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /stats = %s, want 404", resp.Status)
	}

	// The /metrics registry reflects the live traffic: a running
	// brokerd must show non-zero traces-published, ping RTT observations
	// and an enriched health report.
	resp, err = http.Get("http://" + adminAddr + "/metrics?format=json")
	if err != nil {
		t.Fatalf("metrics endpoint: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metrics?format=json Content-Type = %q", ct)
	}
	var metrics struct {
		Counters   map[string]uint64 `json:"counters"`
		Gauges     map[string]int64  `json:"gauges"`
		Histograms map[string]struct {
			Count uint64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	resp.Body.Close()
	if metrics.Counters["broker_published_total"] == 0 {
		t.Fatalf("broker_published_total is zero: %v", metrics.Counters)
	}
	if metrics.Counters["traces_published_total"] == 0 {
		t.Fatalf("traces_published_total is zero: %v", metrics.Counters)
	}
	if metrics.Counters["core_registrations_total"] == 0 || metrics.Gauges["core_sessions_active"] != 1 {
		t.Fatalf("registration metrics wrong: %v / %v", metrics.Counters, metrics.Gauges)
	}
	if metrics.Histograms["ping_rtt_ms"].Count == 0 {
		t.Fatal("ping_rtt_ms histogram is empty")
	}
	// Drop-reason counters are pre-registered, so they are visible (at
	// zero) even before any violation occurs.
	if _, ok := metrics.Counters[`traces_dropped_total{reason="bad_signature"}`]; !ok {
		t.Fatalf("drop-reason counters not exposed: %v", metrics.Counters)
	}
	resp, err = http.Get("http://" + adminAddr + "/healthz")
	if err != nil {
		t.Fatalf("healthz endpoint: %v", err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["sessions"] != float64(1) || health["broker"] != "broker-1" {
		t.Fatalf("healthz: %v", health)
	}

	// Sanity: nothing was rejected (the tracker only prints rejections
	// at shutdown; absence of "bad" lines suffices here).
	b, _ := os.ReadFile(filepath.Join(dir, "tracker.log"))
	if strings.Contains(string(b), "rejected:") {
		t.Fatalf("tracker rejected traffic:\n%s", b)
	}
	fmt.Println("daemon e2e: traces flowed across real processes")
}
