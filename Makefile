# Convenience targets for the Run-Walk-Crawl reproduction.

GO ?= go

.PHONY: all build lint lint-json lint-ext vuln test test-short race race-short cover bench bench-json experiments experiments-quick examples serve-demo flight-demo clean

all: build lint test

build:
	$(GO) build ./...
	$(GO) vet ./...

# rwc-lint is the repo-specific determinism/unit-invariant suite
# (internal/lint): AST-local checks (norandglobal, nowalltime,
# nofloateq, unitmix), interprocedural determinism-taint and
# concurrency analyzers (mapiter, goroleak, chanorder, seriesname),
# and the suppression meta-check (nolintpolicy). The baseline file is
# kept empty — the module is swept clean — but stays wired in so a
# temporarily accepted finding has exactly one place to live.
lint:
	$(GO) run ./cmd/rwc-lint -baseline lint.baseline.json ./...

# Machine-readable findings for CI: deterministic JSON on stdout.
lint-json:
	$(GO) run ./cmd/rwc-lint -baseline lint.baseline.json -json ./...

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
# ns/op, allocs/op, and each b.ReportMetric headline number.
bench-json:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=1x . | $(GO) run ./cmd/rwc-benchjson > BENCH_quick.json
	$(GO) test -run '^$$' -bench=History -benchmem ./internal/obs/... | $(GO) run ./cmd/rwc-benchjson -sha "$(BENCH_SHA)" -date "$(BENCH_DATE)" -merge BENCH_history.jsonl
	$(GO) test -run '^$$' -bench='SteadyStateRound|ContinentalRound|KShortestPaths|ThroughputGains$$|WANFlight|ControllerSafeguards' -benchmem -benchtime=1x . | $(GO) run ./cmd/rwc-benchjson -sha "$(BENCH_SHA)" -date "$(BENCH_DATE)" -merge BENCH_history.jsonl

# Regenerate every paper figure (minutes at paper scale).
experiments:
	$(GO) run ./cmd/rwc-experiments

experiments-quick:
	$(GO) run ./cmd/rwc-experiments -quick

# Live operations plane demo: run the WAN simulation with the HTTP
# telemetry server up and keep serving afterwards. While it runs (and
# lingers), browse:
#   http://localhost:6060/metrics      Prometheus exposition
#   http://localhost:6060/runz         run info (seed, sim clock, counts)
#   http://localhost:6060/traces       live SSE trace tail
#   http://localhost:6060/debug/pprof  profiler
# Ctrl-C to stop.
serve-demo:
	$(GO) run ./cmd/rwc-wansim -rounds 28 -policy all \
		-serve localhost:6060 -log info -linger

# Flight recorder demo: record a run, replay it (verifying the
# regenerated artifacts byte-match the originals), explain one link's
# decision chain, and bisect against a fault-injected twin.
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
	-$(GO) run ./cmd/rwc-replay bisect \
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
		-serve localhost:6060 -tick 2s -poll 1s -log info

# Load-harness demo: drive a deterministic client load burst at a
# daemon started with `make daemon-demo` and print the JSON report.
loadgen-demo:
	$(GO) run ./cmd/rwc-loadgen -addr localhost:6060 -duration 5s -seed 1

# Run all example programs.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/availability
	$(GO) run ./examples/hitless
	$(GO) run ./examples/throughput
	$(GO) run ./examples/controller
	$(GO) run ./examples/protection
	$(GO) run ./examples/provisioning
	$(GO) run ./examples/fibbing

clean:
	$(GO) clean ./...
