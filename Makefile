GO ?= go
FUZZTIME ?= 30s
BASE ?= HEAD
N ?= 10

.PHONY: build test race vet fmt lint bench-build bench-correct bench-pairs test-faults fuzz-smoke obs-smoke check check-full

build: ## compile every package
	$(GO) build ./...

test: ## unit + integration + property-based tests
	$(GO) test ./...

race: ## full test suite under the race detector
	$(GO) test -race ./...

vet: ## stock go vet
	$(GO) vet ./...

fmt: ## fails if any Go file is not gofmt-formatted
	test -z "$$(gofmt -l .)"

lint: ## project-specific analyzers (12 rules, see ANALYSIS.md); fails on any finding
	$(GO) run ./cmd/homesight-vet ./...

test-faults: ## deterministic fault-injection suite for the ingest wire, fleet tier and live analytics, 20 times under -race
	$(GO) test -race -run 'TestFault|TestCollectorPersistParity' -count=20 ./internal/telemetry/... ./internal/fleet/... ./internal/livestats/...

bench-build: ## compile the benchmark harness without running it (check smoke)
	$(GO) test -c -o /dev/null .

bench-correct: ## correctness-only pass of the end-to-end benchmark: each workload for 1 s; fails when a run reports correct: false (e.g. an analysis_suite digest moved)
	for w in ingest_fleet live_mixed series_read analysis_suite; do bash bench/run.sh -workload $$w -seconds 1 || exit 1; done

bench-pairs: ## end-to-end benchmark of this tree against commit BASE over N alternating pairs (WORKLOADS: default all four); prints medians, quartiles, wins and a verdict per metric
	bash scripts/bench_pairs.sh $(BASE) $(N) $(WORKLOADS)

fuzz-smoke: ## short fuzz pass ($(FUZZTIME)/target) over the store codecs, WAL replay, vet directive parser, the batch frame, the rank kernel, the ADF solver, the /series encoder, the whisker selection and the live sketches
	$(GO) test -run NONE -fuzz '^FuzzBlockCodec$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run NONE -fuzz '^FuzzRollupCodec$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run NONE -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run NONE -fuzz '^FuzzDirectiveParser$$' -fuzztime $(FUZZTIME) ./internal/analysis
	$(GO) test -run NONE -fuzz '^FuzzBatchFrame$$' -fuzztime $(FUZZTIME) ./internal/telemetry
	$(GO) test -run NONE -fuzz '^FuzzRankSketch$$' -fuzztime $(FUZZTIME) ./internal/livestats
	$(GO) test -run NONE -fuzz '^FuzzRankKernel$$' -fuzztime $(FUZZTIME) ./internal/stats/corr
	$(GO) test -run NONE -fuzz '^FuzzADF$$' -fuzztime $(FUZZTIME) ./internal/stats/tests
	$(GO) test -run NONE -fuzz '^FuzzEncodeSeries$$' -fuzztime $(FUZZTIME) ./internal/query
	$(GO) test -run NONE -fuzz '^FuzzUpperWhisker$$' -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run NONE -fuzz '^FuzzQuantileSketch$$' -fuzztime $(FUZZTIME) ./internal/livestats

obs-smoke: ## run the homesight binary's experiments, collector and store serve with their servers up, curl /metrics, /healthz and /api/v1, grep required series
	GO="$(GO)" sh scripts/obs_smoke.sh

check-full: ## full-scale paper reproduction (196 homes x 8 weeks) diffed against experiments_output.txt; ~15-17 s and ~905 MiB peak RSS on 2 vCPU under the 900 MiB soft memory limit (unset: ~15-25 s, ~1.15-1.25 GiB peak)
	GOMEMLIMIT=900MiB $(GO) run ./cmd/homesight experiments -homes 196 -weeks 8 | diff - experiments_output.txt

check: vet fmt race lint test-faults bench-build bench-correct fuzz-smoke obs-smoke check-full ## the full CI gate: vet + gofmt + race tests + homesight-vet + fault suite + bench smoke + benchmark correctness + fuzz smoke + obs smoke + the paper's figures diffed at full scale
	@echo "check: all gates passed"
