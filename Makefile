# entitytrace — build/test/bench entry points.

GO ?= go

.PHONY: all build test loc race verify cover trace avail durable fabric telemetry bench flood hotpath benchdiff fuzz chaos repro examples clean

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
# use: verify already covers every package here with its -race pass over
# ./internal/... and the scenario with its -run 'TestChaos' line.
race:
	$(GO) test -race -count=1 ./internal/broker/ ./internal/secure/... ./internal/transport/ ./internal/message/ ./internal/durable/ ./internal/fabric/
	$(GO) test -race -count=1 -run 'TestChaosSession' .

# Tier-1 gate: everything CI runs before a merge.
verify: build
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/...
	$(GO) test -race -run 'TestChaos' -count=1 .
	FLOOD_EXPORT=1 $(GO) test -race -run 'TestExportFloodBench' -count=1 .
	HOTPATH_EXPORT=1 $(GO) test -run 'TestExportHotpathBench' -count=1 .
	$(MAKE) trace
	$(MAKE) avail
	$(MAKE) durable
	$(MAKE) fabric
	$(MAKE) telemetry
	$(MAKE) cover

# Deterministic fault-injection suite: the root chaos scenarios plus the
# injector, failure-detector and reconnect tests, all race-enabled. Every
# injector seed is fixed in the tests, so failures replay exactly.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 -v .
	$(GO) test -race -count=1 ./internal/chaos/ ./internal/failure/
	$(GO) test -race -count=1 -run 'Reconnect|PersistentLink' ./internal/core/ ./internal/broker/

# Coverage over the internal packages. Fails loudly when any internal
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
	@out=$$($(GO) test ./internal/... 2>&1); status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	missing=$$(echo "$$out" | grep '\[no test files\]' || true); \
	if [ -n "$$missing" ]; then \
		echo "cover: internal packages without test files:"; echo "$$missing"; exit 1; \
	fi
	$(GO) test -cover ./internal/...
	@check() { \
		pct=$$($(GO) test -cover "./internal/$$1/" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
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
# against fake-clock ground truth — then the ledger benchmark export
# (BENCH_avail.json), which also enforces the tens-of-ns per-event
# budget. 'TestAvail' deliberately does not match TestExportAvailBench.
avail:
	$(GO) test -race -run 'TestAvail' -count=1 -v .
	AVAIL_EXPORT=1 $(GO) test -run 'TestExportAvailBench' -count=1 -v .

# Durability smoke: the durable-log unit suite race-enabled, the crash
# e2e suite (SIGKILL-equivalent broker crash + same-log-dir restart with
# gap-free, duplicate-free ledgers; tamper refusal on recovery; late
# tracker history replay), then the benchmark export (BENCH_durable.json),
# which enforces the §3.8 acceptance bound: persist-before-fan-out within
# 10% of the PR 7 batched fan-out baseline.
durable:
	$(GO) test -race -count=1 ./internal/durable/
	$(GO) test -race -run 'TestDurable' -count=1 -v .
	DURABLE_EXPORT=1 $(GO) test -run 'TestExportDurableBench' -count=1 -v .

# Fabric smoke (§3.9): the hash-ring/gossip/orchestrator unit suite
# race-enabled, the owner-kill chaos scenario, the 16-broker 100k-entity
# tracking soak under -race, then the capacity-normalized scale
# benchmark export (BENCH_fabric.json), which enforces the acceptance
# bound: >= 3x aggregate deliveries/s at 4 shards vs 1 under an
# identical offered schedule.
fabric:
	$(GO) test -race -count=1 ./internal/fabric/
	$(GO) test -race -run 'TestChaosFabricOwnerKill' -count=1 -v .
	FABRIC_E2E=1 $(GO) test -race -run 'TestFabricE2E16Brokers100k' -count=1 -v -timeout 20m .
	FABRIC_EXPORT=1 $(GO) test -run 'TestExportFabricBench' -count=1 -v .

# Telemetry smoke (§3.10): the time-series store / alert engine / admin
# endpoint unit suites race-enabled (including the allocation-free
# steady-state append gate), the metric-name lint over every registered
# metric, the 4-broker fleet-top e2e (fleet assembly on the system
# telemetry topic, one edge-triggered egress-depth episode with its
# hold-down clear, and the synthesized heartbeat-absent alert for a
# crashed broker), then the BENCH_obs.json export, which enforces the
# <3% telemetry-on fan-out overhead budget.
telemetry:
	$(GO) test -race -count=1 ./internal/obs/...
	$(GO) test -race -run 'TestMetricNameLint|TestTelemetryFleetTopE2E' -count=1 -v .
	OBS_EXPORT=1 $(GO) test -run 'TestExportObsBench' -count=1 -v .

# Full benchmark sweep (the testing.B mirror of the paper's evaluation).
bench:
	$(GO) test -bench=. -benchmem ./...

# Overload-protection benchmark: healthy throughput/latency vs. the same
# broker under a flooding publisher and a stalled consumer. Race-enabled
# so the protections are exercised under contention; writes
# BENCH_flood.json.
flood:
	FLOOD_EXPORT=1 $(GO) test -race -run 'TestExportFloodBench' -count=1 -v .

# Hot-path benchmark: §4.3 guard verification with and without the
# verified-token cache, zero-alloc forward framing, and multi-publisher
# fan-out throughput. Writes BENCH_hotpath.json (not race-enabled: the
# numbers are the point).
hotpath:
	HOTPATH_EXPORT=1 $(GO) test -run 'TestExportHotpathBench' -count=1 -v .

# Mechanical perf comparison for this and future perf PRs: run the
# hot-path benchmarks 5x, then diff against the stashed baseline with
# cmd/benchdiff (mean ± stderr). First run records the baseline; commit
# or stash your changes, run again, and the table shows the deltas.
# Refresh the baseline by deleting bench_baseline.txt.
HOTPATH_BENCHES = TraceVerification|GuardCachedTrace|ForwardFrame|Fanout|Envelope|Avail|Session|Batch|Durable|Fabric|Telemetry
benchdiff:
	$(GO) test -bench '$(HOTPATH_BENCHES)' -benchmem -count=5 -run '^$$' . > bench_head.txt
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
