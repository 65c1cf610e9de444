#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the benchmark from source inside the
# checkout and runs it there; the driver's arguments (--workload, --seed,
# --seconds, --trace) pass straight through. Everything the Go tool writes
# (build cache, scratch space, its own counters) is pointed under
# .bench_build, so nothing is written outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
# A checkout that is not (or is inside someone else's) git repository cannot
# be stamped with a commit; the build is the same without the stamp.
go build -C benchmark -o "$build/ledger" . 2>/dev/null ||
	go build -C benchmark -buildvcs=false -o "$build/ledger" .
exec "$build/ledger" "$@"
