GO ?= go
SMOKE_OUT ?= /tmp/aggregathor-scenario-smoke.json
TCP_SMOKE_OUT ?= /tmp/aggregathor-scenario-tcp-smoke.json
UDP_SMOKE_OUT ?= /tmp/aggregathor-scenario-udp-smoke.json
MODEL_LOSS_SMOKE_OUT ?= /tmp/aggregathor-scenario-model-loss-smoke.json
WIRE_SMOKE_OUT ?= /tmp/aggregathor-scenario-wire-smoke.json
ASYNC_SMOKE_OUT ?= /tmp/aggregathor-scenario-async-smoke.json
CHURN_SMOKE_OUT ?= /tmp/aggregathor-scenario-churn-smoke.json

BENCH_JSON_DIR ?= .

.PHONY: all vet fmt-check lint escape-check guard-matrix-check directives check build test race fuzz smoke smoke-tcp smoke-udp smoke-model-loss smoke-wire smoke-async smoke-churn bench-json perfbench ci clean

all: ci

vet:
	$(GO) vet ./...

# Fail if any Go file in the module (perfbench included) is not gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l .)"

# Run the aggrevet determinism & hot-path suite (internal/analysis) over the
# whole module. Findings are fixed or justified with //aggrevet: directives —
# the build fails otherwise.
lint:
	$(GO) run ./cmd/aggrevet ./...

# Diff the hot-path escape profile (go build -gcflags=-m on internal/gar and
# internal/transport) against the committed baseline. Regenerate after an
# intentional change with: $(GO) run ./cmd/aggrevet -escape -write
escape-check:
	$(GO) run ./cmd/aggrevet -escape

# Diff the cross-layer guard-parity matrix (config-axis pairs x the layers
# rejecting them) against the committed golden. Regenerate after adding or
# moving a guard with: $(GO) run ./cmd/aggrevet -guard-matrix -write
guard-matrix-check:
	$(GO) run ./cmd/aggrevet -guard-matrix

# Audit every //aggrevet:* suppression directive in the module: prints each
# justification with its location and fails on thin (<10 char) ones.
directives:
	$(GO) run ./cmd/aggrevet -directives ./...

# The default local gate: static checks, then build and tests.
check: vet fmt-check lint escape-check guard-matrix-check build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short coverage of the fuzz targets beyond their seed corpora: transport
# codec and reassembler, quorum and churn admission, and the
# mean-around-median sorted-window kernel.
fuzz:
	$(GO) test ./internal/transport/ -run=NONE -fuzz=FuzzDecodePacket -fuzztime=20s
	$(GO) test ./internal/transport/ -run=NONE -fuzz=FuzzDecodeGradient -fuzztime=20s
	$(GO) test ./internal/transport/ -run=NONE -fuzz=FuzzReassembler -fuzztime=20s
	$(GO) test ./internal/ps/ -run=NONE -fuzz=FuzzQuorumAdmission -fuzztime=20s
	$(GO) test ./internal/ps/ -run=NONE -fuzz=FuzzMembershipTracker -fuzztime=20s
	$(GO) test ./internal/tensor/ -run=NONE -fuzz=FuzzMeanAroundMedianKernel -fuzztime=20s

# Run the built-in scenario campaign (4 GARs x 3 attacks + baseline x 2
# network conditions) and write the deterministic results JSON.
smoke:
	$(GO) run ./cmd/scenario -out $(SMOKE_OUT)

# Run the built-in socket-distributed campaign: the same cells in-process and
# over real localhost TCP, with byte-reproducible JSON for both.
smoke-tcp:
	$(GO) run ./cmd/scenario -builtin tcp-smoke -out $(TCP_SMOKE_OUT)

# Run the built-in lossy-datagram campaign: the same cells in-process, over
# real UDP sockets on a perfect link, and at 10% seeded packet loss — all
# with byte-reproducible JSON.
smoke-udp:
	$(GO) run ./cmd/scenario -builtin udp-smoke -out $(UDP_SMOKE_OUT)

# Run the built-in lossy-model-broadcast campaign (footnote 12): the same
# cells with a perfect model channel and with 10% scheduled downlink loss
# under the skip and stale recoup policies — all byte-reproducible.
smoke-model-loss:
	$(GO) run ./cmd/scenario -builtin model-loss-smoke -out $(MODEL_LOSS_SMOKE_OUT)

# Run the built-in wire-format campaign (float64 vs float32 over UDP, perfect
# and 10%-lossy links) twice and require byte-identical JSON: the float32 wire
# must be exactly as deterministic as the float64 one.
smoke-wire:
	$(GO) run ./cmd/scenario -builtin wire-smoke -out $(WIRE_SMOKE_OUT)
	$(GO) run ./cmd/scenario -builtin wire-smoke -out $(WIRE_SMOKE_OUT).rerun
	cmp $(WIRE_SMOKE_OUT) $(WIRE_SMOKE_OUT).rerun

# Run the built-in asynchronous-round campaign (quorum + bounded staleness
# under a deterministic slow-worker schedule, on all three backends) twice and
# require byte-identical JSON: the quorum settlement must be as deterministic
# as lockstep.
smoke-async:
	$(GO) run ./cmd/scenario -builtin async-smoke -out $(ASYNC_SMOKE_OUT)
	$(GO) run ./cmd/scenario -builtin async-smoke -out $(ASYNC_SMOKE_OUT).rerun
	cmp $(ASYNC_SMOKE_OUT) $(ASYNC_SMOKE_OUT).rerun

# Run the built-in worker-churn campaign (seeded crash/rejoin schedules with
# reconnect backoff and below-bound degradation, on both socket backends plus
# a lossy-uplink cell) twice and require byte-identical JSON: every churn
# counter is a pure function of the seed, never of socket timing.
smoke-churn:
	$(GO) run ./cmd/scenario -builtin churn-smoke -out $(CHURN_SMOKE_OUT)
	$(GO) run ./cmd/scenario -builtin churn-smoke -out $(CHURN_SMOKE_OUT).rerun
	cmp $(CHURN_SMOKE_OUT) $(CHURN_SMOKE_OUT).rerun

# Time the GAR kernel engine (fresh + workspace aggregation, distance
# schedules) and write BENCH_aggregation.json — the perf trajectory to diff
# across commits on the same machine.
bench-json:
	$(GO) run ./cmd/bench -json -out $(BENCH_JSON_DIR)

# Test the repository benchmark module (perfbench/, its own Go module) and
# run short untraced udp-lossy and tcp-churn workloads through
# perfbench/run.py (tcp-churn's updates_per_s and round_p50_ms drop if a
# churn round's cost grows with rounds run again). Full runs:
# python3 perfbench/run.py --workload W --seed N --seconds 20 --trace 0|1
perfbench:
	cd perfbench && $(GO) test ./...
	python3 perfbench/run.py --workload udp-lossy --seconds 5 --trace 0
	python3 perfbench/run.py --workload tcp-churn --seconds 5 --trace 0

ci: vet fmt-check lint escape-check guard-matrix-check build race smoke smoke-tcp smoke-udp smoke-model-loss smoke-wire smoke-async smoke-churn

clean:
	$(GO) clean ./...
	rm -f $(SMOKE_OUT) $(TCP_SMOKE_OUT) $(UDP_SMOKE_OUT) $(MODEL_LOSS_SMOKE_OUT) \
		$(WIRE_SMOKE_OUT) $(WIRE_SMOKE_OUT).rerun \
		$(ASYNC_SMOKE_OUT) $(ASYNC_SMOKE_OUT).rerun \
		$(CHURN_SMOKE_OUT) $(CHURN_SMOKE_OUT).rerun
