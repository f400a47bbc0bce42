#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from the benchmark's own directory; arguments pass
# through. Everything the toolchain writes (build cache, temporary files,
# its telemetry counters) is pointed into .bench_build/, so nothing lands
# outside the checkout.
#
# `run.sh --check` instead vets, tests and lints this module: it has a go.mod
# of its own, so the repository's `go vet ./...`, `go test ./...` and
# `make lint` stop at its door, and this is the command that stands in for them.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
if [ "${1:-}" = "--check" ]; then
	go vet ./...
	go test -count=1 ./...
	(cd .. && go build -o "$build/rnvet" ./cmd/rnvet)
	exec "$build/rnvet" ./...
fi
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
