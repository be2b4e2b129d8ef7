# Convenience targets for the Run-Walk-Crawl reproduction.

GO ?= go

.PHONY: all build fmt-check lint lint-json lint-ext vuln test test-short race race-short cover bench bench-json experiments experiments-quick serve-demo flight-demo daemon-demo clean

all: build lint test

build:
	$(GO) build ./...
	$(GO) vet ./...

# Formatting gate: fails listing every tracked Go file, bench/ included,
# that gofmt would rewrite. testdata/ is excluded: its lint fixtures
# are inputs, and one is deliberately not gofmt-clean.
fmt-check:
	@files=$$(git ls-files -- '*.go' ':!:*/testdata/*') || exit 1; \
	out=$$(gofmt -l $$files) || exit 1; \
	if [ -n "$$out" ]; then echo "fmt-check: gofmt would rewrite:"; echo "$$out"; exit 1; fi

# rwc-lint is the repo-specific determinism/unit-invariant suite
# (internal/lint): AST-local checks (norandglobal, nowalltime,
# nofloateq, unitmix), interprocedural determinism-taint and
# concurrency analyzers (mapiter, goroleak, chanorder, seriesname),
# and the suppression meta-check (nolintpolicy). Any finding fails:
# `//nolint:<rule> // reason` on the line is the one way to accept one.
lint:
	$(GO) run ./cmd/rwc-lint ./...

# Machine-readable findings for CI: deterministic JSON on stdout.
lint-json:
	$(GO) run ./cmd/rwc-lint -json ./...

# External linters are advisory: run them when installed, no-op with a
# pointer when not, so offline builds never block on missing tools.
lint-ext:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint-ext: staticcheck not installed; skipping"; \
		echo "lint-ext: install with: go install honnef.co/go/tools/cmd/staticcheck@latest"; \
	fi

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping"; \
		echo "vuln: install with: go install golang.org/x/vuln/cmd/govulncheck@latest"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

race-short:
	$(GO) test -race -short ./...

cover:
	$(GO) test -cover ./internal/... ./rwc/

bench:
	$(GO) test -bench=. -benchmem ./...

# BENCH_SHA / BENCH_DATE label the BENCH_history.jsonl entry; both
# default to git facts (commit SHA and commit date) so the record
# never reads the wall clock. -merge dedupes by SHA, so re-running on
# the same commit updates that commit's entry in place instead of
# appending a duplicate line (which would make rwc-diff's -old-sha
# selection ambiguous).
BENCH_SHA ?= $(shell git rev-parse --short HEAD)
BENCH_DATE ?= $(shell git log -1 --format=%cs)

# Machine-readable record of the quick benchmark suite (root
# bench_test.go runs every figure at Quick scale): benchmark name →
# ns/op, allocs/op, and each b.ReportMetric headline number. Each root
# row runs a fixed number of iterations, its tier's, chosen so the row
# takes >= 100 ms at the ns/op BENCH_quick.json records: a row timed
# over one iteration reads its first, cold one, and a sub-millisecond
# row such as SteadyStateRound read 42-66 us from entry to entry that
# way. Every root benchmark row must match exactly one tier. The suite
# runs once: the BENCH_history.jsonl line copies the rows named in
# BENCH_HISTORY_ROWS out of the same output. About 45 s on a 2-CPU host.
BENCH_TIERS = \
	20000:'^BenchmarkFigure8$$' \
	5000:'^Benchmark(AblationLadder|SteadyStateRound|Figure7|Figure6b|AblationPenalty(Unit|Matrix|Traffic)|FlowSolvers|AblationTE(ShortestPath|Greedy|KPath))$$' \
	300:'^Benchmark(ControllerSafeguards|Figure5|ScrapeUnderLoad)$$' \
	100:'^Benchmark(AblationTEMaxConcurrent|ThroughputGains|Theorem1|ContinentalRound)$$' \
	100:'^BenchmarkWANFlight$$/^(off|on)$$' \
	10:'^Benchmark(NewSimulationContinental(200|1000|64Daemon)|Figure1|KShortestPaths|Availability)$$' \
	1:'^Benchmark(Figure(2a|2aWorkers|2b|3a|3b|4a|4b|4c)|ContinentalRound(GK|KPath)|ThresholdSensitivity)$$' \
	1:'^BenchmarkWANFlight$$/^on\+hist$$'
BENCH_HISTORY_ROWS = SteadyStateRound|ContinentalRound|KShortestPaths|ThroughputGains|WANFlight|ControllerSafeguards|NewSimulationContinental

bench-json:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	for tier in $(BENCH_TIERS); do \
		$(GO) test -run '^$$' -bench="$${tier#*:}" -benchmem -benchtime="$${tier%%:*}x" . || exit 1; \
	done > "$$out" && \
	$(GO) run ./cmd/rwc-benchjson < "$$out" > BENCH_quick.json && \
	$(GO) test -run '^$$' -bench=History -benchmem ./internal/obs/... | $(GO) run ./cmd/rwc-benchjson -sha "$(BENCH_SHA)" -date "$(BENCH_DATE)" -merge BENCH_history.jsonl && \
	grep -E '^Benchmark($(BENCH_HISTORY_ROWS))' "$$out" | $(GO) run ./cmd/rwc-benchjson -sha "$(BENCH_SHA)" -date "$(BENCH_DATE)" -merge BENCH_history.jsonl

# Regenerate every paper figure (minutes at paper scale).
experiments:
	$(GO) run ./cmd/rwc-experiments

experiments-quick:
	$(GO) run ./cmd/rwc-experiments -quick

# Live operations plane demo: run the WAN simulation with the HTTP
# operations plane up and keep serving afterwards. While it runs (and
# lingers), browse:
#   http://localhost:6060/metrics      Prometheus exposition
#   http://localhost:6060/runz         run info (seed, sim clock, counts)
#   http://localhost:6060/sliz         service ledger (rwc_sli_* totals, events)
#   http://localhost:6060/traces       live SSE trace tail
# Ctrl-C to stop.
serve-demo:
	$(GO) run ./cmd/rwc-wansim -rounds 28 -policy all \
		-serve localhost:6060 -linger

# Flight recorder demo: record a run, replay it (verifying the
# regenerated artifacts byte-match the originals), explain one link's
# decision chain, and bisect it against a fault-injected twin with
# rwc-diff.
flight-demo:
	rm -rf /tmp/rwc-flight-demo && mkdir -p /tmp/rwc-flight-demo
	$(GO) run ./cmd/rwc-wansim -rounds 12 -policy dynamic \
		-metrics-out /tmp/rwc-flight-demo/run.prom \
		-trace-out /tmp/rwc-flight-demo/run.jsonl \
		-flight-out /tmp/rwc-flight-demo/run.flight > /dev/null
	$(GO) run ./cmd/rwc-replay replay /tmp/rwc-flight-demo/run.flight \
		-verify-metrics /tmp/rwc-flight-demo/run.prom \
		-verify-trace /tmp/rwc-flight-demo/run.jsonl
	$(GO) run ./cmd/rwc-replay explain /tmp/rwc-flight-demo/run.flight \
		-round 2 -edge 0
	$(GO) run ./cmd/rwc-wansim -rounds 12 -policy dynamic \
		-override-snr 0,0,5,-5 \
		-flight-out /tmp/rwc-flight-demo/dip.flight > /dev/null
	-$(GO) run ./cmd/rwc-diff \
		/tmp/rwc-flight-demo/run.flight /tmp/rwc-flight-demo/dip.flight

# Service-mode demo: run the reconciler daemon with paced rounds, a
# config file it watches for hot reloads, and the operations plane up.
# While it runs, browse:
#   http://localhost:6060/sliz         service-level indicators + reload log
#   http://localhost:6060/metrics      run registry + live rwc_sli_* series
#   http://localhost:6060/demandz      POST demand batches for admission answers
# Edit /tmp/rwc-daemon-demo/wansimd.json mid-run to trigger a reload;
# touch it unchanged to see a provable no-op. Ctrl-C drains and exits.
daemon-demo:
	rm -rf /tmp/rwc-daemon-demo && mkdir -p /tmp/rwc-daemon-demo
	printf '{"topology":"abilene","rounds":120,"policy":"dynamic"}\n' \
		> /tmp/rwc-daemon-demo/wansimd.json
	$(GO) run ./cmd/rwc-wansimd -config /tmp/rwc-daemon-demo/wansimd.json \
		-serve localhost:6060 -tick 2s -poll 1s

clean:
	$(GO) clean ./...
