#!/usr/bin/env bash
# Entry point named by BENCHMARK.json, and the only way the harness is
# built and started. Builds it and the three product binaries it drives
# into .bench_build/ at the checkout's root, vets and unit-tests the
# harness (bench/ is a module of its own, so the root module's
# `go vet ./... && go test ./...` does not reach it), then hands its
# arguments to the harness. After the first run all of that comes out of
# the build cache. Everything the build and the runs write stays inside
# the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(
	cd "$here"
	go build -o "$build/bin/" . repro/cmd/rwc-wansim repro/cmd/rwc-wansimd repro/cmd/rwc-replay
	go vet .
	go test -short .
) >&2

exec "$build/bin/bench" "$@"
