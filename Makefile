# entitytrace — build/test/bench entry points.

GO ?= go

.PHONY: all build test loc race verify cover trace avail durable fabric telemetry bench benchdiff fuzz chaos repro examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Code lines (non-test, non-comment, non-blank) of the packages whose
# shrinking ROADMAP aim 2 counts — the numbers simplicity PRs quote —
# plus the broker-node assembly and its callers (node, harness, the two
# hand-wired examples), so wiring moved between them is counted, not
# mistaken for a reduction. The last line is the total.
LOC_DIRS = internal/broker internal/core internal/message internal/tracectl internal/obs cmd/brokerd \
	internal/node internal/harness examples/quickstart examples/federation
loc:
	@total=0; for d in $(LOC_DIRS); do \
		n=$$(ls $$d/*.go | grep -v _test | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l); \
		echo "$$d $$n"; total=$$((total + n)); \
	done; echo "total $$total"

# Focused race gate over the crypto and transport hot paths touched by
# the session-key/batching work: the broker (egress coalescing, batch
# ingest), the secure layer (session-key derivation and the pooled HMAC
# schedule) with its differential harness, the transports, and the
# mid-stream renegotiation chaos scenario, uncached (-count=1). For local
# use: verify's one -race pass over ./... already covers all of it.
race:
	$(GO) test -race -count=1 ./internal/broker/ ./internal/secure/... ./internal/transport/ ./internal/message/ ./internal/durable/ ./internal/fabric/
	$(GO) test -race -count=1 -run 'TestChaosSession' .

# Tier-1 gate: everything CI runs before a merge — formatting, vet, the
# tests, the same tests once under the race detector, and the coverage
# floors. The feature targets below and the 16-broker soak are for
# local use; the benchmark (make bench) is never in the merge path.
verify: build
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./...
	$(MAKE) cover

# Deterministic fault-injection suite: the root chaos scenarios plus the
# injector, failure-detector and reconnect tests, all race-enabled. Every
# injector seed is fixed in the tests, so failures replay exactly.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 -v .
	$(GO) test -race -count=1 ./internal/chaos/ ./internal/failure/
	$(GO) test -race -count=1 -run 'Reconnect|PersistentLink' ./internal/core/ ./internal/broker/

# Coverage over the internal packages, one -cover run read twice (since
# Go 1.22 a package without tests reports 0.0% on a line of its own
# instead of "[no test files]"). Fails loudly when any internal
# package has no test files at all, and holds hard floors on the
# operator-facing packages: internal/obs (flight recorder and trace
# assembly) and internal/avail (the availability ledger and SLO engine)
# are the only window into a misbehaving deployment, so their behaviour
# stays pinned by tests — and internal/secure (RSA guard chain plus the
# session-key schedule), where an untested branch is a crypto bug.
OBS_COVER_FLOOR = 85
AVAIL_COVER_FLOOR = 80
SECURE_COVER_FLOOR = 85
DURABLE_COVER_FLOOR = 85
FABRIC_COVER_FLOOR = 85
TELEMETRY_COVER_FLOOR = 85
cover:
	@out=$$($(GO) test -cover ./internal/... 2>&1); status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	missing=$$(echo "$$out" | grep -E '\[no test files\]|^[[:space:]]+entitytrace/' || true); \
	if [ -n "$$missing" ]; then \
		echo "cover: internal packages without test files:"; echo "$$missing"; exit 1; \
	fi; \
	check() { \
		pct=$$(echo "$$out" | awk -v pkg="entitytrace/internal/$$1" '$$2 == pkg' | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: could not parse internal/$$1 coverage"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" -v f="$$2" 'BEGIN{print (p >= f) ? 1 : 0}'); \
		if [ "$$ok" != 1 ]; then \
			echo "cover: internal/$$1 coverage $$pct% is below the $$2% floor"; exit 1; \
		fi; \
		echo "cover: internal/$$1 $$pct% >= $$2% floor"; \
	}; \
	check obs $(OBS_COVER_FLOOR) && check avail $(AVAIL_COVER_FLOOR) && check secure $(SECURE_COVER_FLOOR) && check durable $(DURABLE_COVER_FLOOR) && check fabric $(FABRIC_COVER_FLOOR) && check obs/timeseries $(TELEMETRY_COVER_FLOOR)

# Tracing smoke: the tracectl end-to-end suite against a 3-broker chain —
# waterfall rendering, guard-drop visibility in tail, tail's since-cursor
# and the broker map rendered from telemetry (see trace_e2e_test.go).
trace:
	$(GO) test -race -run 'TestTraceCtl' -count=1 -v .

# Availability smoke: the ledger end-to-end suite — the tracectl board
# fed by disseminated digests over a 3-broker chain, the /avail admin
# endpoints, a chaos link-flap, and the scripted flapping entity checked
# against fake-clock ground truth.
avail:
	$(GO) test -race -run 'TestAvail' -count=1 -v .

# Durability smoke: the durable-log unit suite race-enabled and the crash
# e2e suite (SIGKILL-equivalent broker crash + same-log-dir restart with
# gap-free, duplicate-free ledgers; tamper refusal on recovery; late
# tracker history replay).
durable:
	$(GO) test -race -count=1 ./internal/durable/
	$(GO) test -race -run 'TestDurable' -count=1 -v .

# Fabric smoke (§3.9): the hash-ring/gossip/orchestrator unit suite
# race-enabled, the owner-kill chaos scenario, and the 16-broker
# 100k-entity tracking soak under -race (FABRIC_E2E gates the soak out
# of every other run: it takes minutes).
fabric:
	$(GO) test -race -count=1 ./internal/fabric/
	$(GO) test -race -run 'TestChaosFabricOwnerKill' -count=1 -v .
	FABRIC_E2E=1 $(GO) test -race -run 'TestFabricE2E16Brokers100k' -count=1 -v -timeout 20m .

# Telemetry smoke (§3.10): the time-series store / alert engine / admin
# endpoint unit suites race-enabled (including the allocation-free
# steady-state append gate), the metric-name lint over every registered
# metric, the 4-broker fleet-top e2e (fleet assembly on the system
# telemetry topic, one edge-triggered egress-depth episode with its
# hold-down clear, and the synthesized heartbeat-absent alert for a
# crashed broker), then the <3% telemetry-on fan-out overhead budget
# (without -race: it compares two throughputs).
telemetry:
	$(GO) test -race -count=1 ./internal/obs/...
	$(GO) test -race -run 'TestMetricNameLint|TestTelemetryFleetTopE2E' -count=1 -v .
	$(GO) test -run 'TestTelemetryOverheadBudget' -count=1 -v .

# The end-to-end benchmark: four workloads over loopback TCP, end-to-end
# and per-layer metrics (see bench/README.md). make repro regenerates
# the paper's tables and figures.
bench:
	$(GO) run ./bench

# Mechanical perf comparison for this and future perf PRs: run the
# in-package benchmarks 5x, then diff against the stashed baseline with
# cmd/benchdiff (mean ± stderr). First run records the baseline; commit
# or stash your changes, run again, and the table shows the deltas.
# Refresh the baseline by deleting bench_baseline.txt.
benchdiff:
	$(GO) test -bench . -benchmem -count=5 -run '^$$' ./internal/... > bench_head.txt
	@if [ -f bench_baseline.txt ]; then \
		$(GO) run ./cmd/benchdiff bench_baseline.txt bench_head.txt; \
	else \
		cp bench_head.txt bench_baseline.txt; \
		echo "benchdiff: baseline recorded in bench_baseline.txt; re-run after your change"; \
	fi

# Short fuzz campaigns over every wire parser.
fuzz:
	$(GO) test ./internal/message/ -fuzz FuzzUnmarshalEnvelope -fuzztime 20s -run xxx
	$(GO) test ./internal/message/ -fuzz FuzzPayloadParsers -fuzztime 20s -run xxx
	$(GO) test ./internal/token/ -fuzz FuzzUnmarshalToken -fuzztime 20s -run xxx
	$(GO) test ./internal/tdn/ -fuzz FuzzUnmarshalAdvertisement -fuzztime 20s -run xxx
	$(GO) test ./internal/broker/ -fuzz FuzzParseBatch -fuzztime 20s -run xxx
	$(GO) test ./internal/durable/ -fuzz FuzzSegmentParse -fuzztime 20s -run xxx
	$(GO) test ./internal/broker/ -fuzz FuzzReplayFrame -fuzztime 20s -run xxx
	$(GO) test ./internal/message/ -fuzz FuzzTelemetrySnapshot -fuzztime 20s -run xxx

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
repro:
	$(GO) run ./cmd/repro -exp all -rounds 25

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/servicemonitor
	$(GO) run ./examples/loadbalancer
	$(GO) run ./examples/securetraces
	$(GO) run ./examples/federation

clean:
	$(GO) clean ./...
	rm -rf bin
