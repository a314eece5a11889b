# Targets mirror the CI steps (.github/workflows/ci.yml) so local and
# CI invocations stay in sync.

GO ?= go

.PHONY: all build test lint test-fusion-off bench bench-smoke bench-report bench-gate recover-e2e load-smoke cluster-smoke store-smoke shard-contention docs-check

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Fusion-off matrix leg — what the CI "Race tests with fusion disabled"
# step runs: the EVM and engine suites under pure tier-0 dispatch, so a
# superinstruction bug cannot hide behind the default-on configuration.
test-fusion-off:
	TINYEVM_FUSION=off $(GO) test -race ./internal/evm/... ./internal/engine/...

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...

# Full benchmark run (paper tables use the published populations; slow).
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# One iteration per benchmark plus the reduced paper tables — what the
# CI bench-smoke job runs.
bench-smoke:
	$(GO) test -bench . -benchtime=1x -run '^$$' .
	$(GO) run ./cmd/benchtables -table 2 -n 300 -q
	$(GO) run ./cmd/benchtables -engine -q

# Machine-readable benchmark report (BENCH_<n>.json schema). Add
# -profile-ops to include per-opcode/per-superinstruction hit counts.
bench-report:
	$(GO) run ./cmd/benchreport -q -out BENCH_10.json

# Crash-recovery end-to-end: SIGKILL a real tinyevm-serve -data-dir
# daemon mid-workload, restart it, and assert the recovered head block,
# balances and channel states — what the CI recover-e2e step runs.
recover-e2e:
	$(GO) test -race -v -run TestCrashRecoveryE2E .

# Regression gate against the committed baseline — what the CI
# bench-gate job runs. Refresh the baseline after intentional perf
# changes with:
#   $(GO) run ./cmd/benchreport -write-baseline testdata/bench-baseline.json
bench-gate:
	$(GO) run ./cmd/benchreport -q -compare testdata/bench-baseline.json

# Load-harness smoke — what the CI load-smoke job runs: spawn a
# daemon, run every contention profile with client kills, wire chaos
# and one SIGKILL+store-recovery cycle, plus the contract workload
# suite. Exits non-zero on any error outside the taxonomy or a failed
# recovery.
load-smoke:
	$(GO) run ./cmd/tinyevm-load -spawn -mode all -duration 3s \
		-daemon-kills 1 -client-kill 0.1 -drop 0.02 -delay 0.1 \
		-delay-max 5ms -retries 4 -wl-txs 256 -bench-out load-bench.txt
	$(GO) run ./cmd/benchreport -parse load-bench.txt -out bench-load.json

# Shard-contention smoke — what the CI shard-contention step runs:
# race-enabled hammers over disjoint and colliding channel pairs on
# the striped hot path, then the load harness's hotspot profile
# (receiver-side contention on a few hot meters) with batched RPC
# against a spawned daemon.
shard-contention:
	$(GO) test -race -v -run 'TestShard.*Hammer' .
	$(GO) run ./cmd/tinyevm-load -spawn -profiles hotspot -duration 5s \
		-batch 8 -concurrency 16 -vehicles 24 -hot-meters 3 \
		-bench-out shard-contention.txt

# Cluster smoke — what the CI cluster-smoke job runs: three real
# tinyevm-serve daemons form one sidechain over TCP, payments flow
# through all of them, one daemon is SIGKILLed mid-run and restarted
# with no data dir, and every daemon must converge on byte-identical
# block hashes (the victim via pure p2p state sync).
cluster-smoke:
	$(GO) test -race -v -run TestClusterSmokeE2E . > cluster-smoke.txt 2>&1 || { cat cluster-smoke.txt; exit 1; }
	cat cluster-smoke.txt

# Store smoke — what the CI store-smoke job runs: a race-enabled e2e
# running tinyevm-serve on the disk store (-data-dir, memtable
# shrunk to force segment flushes and compactions) with checkpoints
# and the MST state commitment, SIGKILLed mid-compaction-churn and
# restarted; the recovered head hash and state root must be
# byte-identical and the restart bounded by the checkpoint tail.
store-smoke:
	$(GO) test -race -v -run TestStoreSmokeE2E . > store-smoke.txt 2>&1 || { cat store-smoke.txt; exit 1; }
	cat store-smoke.txt

# Markdown link check over README and docs/ (offline: files + anchors).
docs-check:
	$(GO) run ./cmd/linkcheck README.md docs/ PAPER.md ROADMAP.md CHANGES.md
