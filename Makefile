# Developer checks for the microbank simulator. `make check` is the
# gate every change should pass: the race detector guards the
# worker-pool experiment layer, the alloc guard pins allocation counts
# exactly, the bench smoke runs every benchmark once, and the protocol
# gate runs every shipped configuration under the DRAM timing sanitizer
# (internal/check). Throughput is measured by perfbench/, not here.

GO ?= go

.PHONY: check build vet test race bench bench-smoke \
	alloc-guard check-protocol check-policies fuzz-smoke resilience-smoke \
	serve-smoke crash-smoke update-golden fmt all-quick

check: build vet race alloc-guard bench-smoke check-protocol

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Hard allocation gate: fails (not just reports) if the engine's
# schedule/step/cancel paths or the controller's eval path (enqueue,
# batch formation, selection, issue, retirement — with and without an
# attached obs tracer) allocate in steady state; and fails if the
# headline run or the quick Fig. 8 / QoS sweeps allocate more than 10%
# over their recorded counts (TestAllocBounds).
alloc-guard:
	$(GO) test -run 'ZeroAllocGuard|AllocBounds' -count=1 ./internal/sim/ ./internal/memctrl/ .

# Every benchmark in the module runs once, so none rots; nothing is
# asserted about speed (alloc-guard gates allocation counts).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Protocol gate: every shipped configuration, page-policy/scheduler
# combination, interleaving, and a multicore run must produce zero
# DRAM timing-protocol violations under the sanitizer. Failures are
# also written to internal/check/protocol-violations.log.
check-protocol:
	$(GO) test -run 'TestProtocol' -count=1 ./internal/check/

# QoS policy gate: the scheduler × SALP × bandwidth-regulator matrix
# under the sanitizer (QOS_MATRIX_FULL=1 widens it to every shipped
# configuration — CI's qos-matrix job does), the map-reference
# scheduler cross-check across the same variants, and the analytic
# worst-case bound property tests, both under the race detector.
check-policies:
	$(GO) test -run 'TestPolicyMatrix' -count=1 ./internal/check/
	$(GO) test -race -run 'TestSchedulerMatchesMapReference' -count=1 ./internal/memctrl/
	$(GO) test -race -count=1 ./internal/qos/

# Resilience smoke: a sweep with an injected panicking cell must run
# to completion under -fail-mode=collect, exit 1, and write exactly one
# recorded panic failure in the report (see the Resilience section of
# EXPERIMENTS.md).
resilience-smoke:
	@rm -f /tmp/resilience-smoke.json
	@$(GO) run ./cmd/microbank -exp headline -quick -instr 4000 \
		-fail-mode collect -inject panic:1 -report /tmp/resilience-smoke.json; \
		status=$$?; test $$status -eq 1 || { echo "resilience smoke: exit $$status, want 1"; exit 1; }
	@grep -c '"kind": "panic"' /tmp/resilience-smoke.json | grep -qx 1
	@echo "resilience smoke: 1 injected panic recorded, partial sweep completed, exit 1"

# Live-observability smoke: a served headline sweep (-j 4) must expose
# well-formed OpenMetrics with the noc_packets and sweep_failures
# series, /status JSON, an SSE stream, and pprof.
serve-smoke:
	sh scripts/serve_smoke.sh

# Durability smoke: a campaign SIGKILLed mid-sweep must resume from the
# -store to a byte-identical report, SIGINT/SIGTERM must checkpoint and
# flush valid aborted artifacts, and a corrupted store entry must be
# quarantined and re-simulated (see "Durability & crash recovery" in
# EXPERIMENTS.md).
crash-smoke:
	sh scripts/crash_smoke.sh

# Short fuzz smokes (CI runs these; drop -fuzztime for an open-ended
# run): randomized configs under the sanitizer, arbitrary bytes
# through the result store's entry decoder (quarantine, never panic),
# arbitrary schedule/cancel/step scripts through the event queue (fire
# order must match a reference), arbitrary -inject specs through their
# parser (never panic, arm only known kinds at cells >= 0), then
# arbitrary bytes through the trace decoder (never panic; an accepted
# trace survives Record+Load unchanged).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzTimingConfig' -fuzztime 20s ./internal/check/
	$(GO) test -run '^$$' -fuzz 'FuzzParseEntry' -fuzztime 15s ./internal/store/
	$(GO) test -run '^$$' -fuzz 'FuzzEngineOrder' -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzSetInject -fuzztime 10s ./internal/experiments/
	$(GO) test -run '^$$' -fuzz 'FuzzTraceReader' -fuzztime 10s ./internal/workload/

# Deliberately regenerate the golden run-report fixtures after a
# change that intentionally alters simulation results (see
# EXPERIMENTS.md for the review protocol).
update-golden:
	UPDATE_GOLDEN=1 $(GO) test -count=1 ./internal/check/golden/

# Full benchmark sweep (figures + substrates), as recorded in EXPERIMENTS.md.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sim/ ./internal/system/ .

fmt:
	gofmt -l -w .

# Regenerate every paper table/figure at reduced fidelity.
all-quick:
	$(GO) run ./cmd/microbank -exp all -quick
