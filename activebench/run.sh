#!/usr/bin/env bash
# Builds the benchmark and the activeserve server from this checkout's
# sources, then runs one benchmark pass. Run it from the repository root:
#
#   bash activebench/run.sh --workload offline-round --seed 1 --seconds 30 --trace 0
#
# The binaries, the Go build cache, the work digests, the span files and the
# server log all stay under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go build -C activebench -o "$out/activebench" .
go build -C activebench -o "$out/activeserve" repro/cmd/activeserve
exec "$out/activebench" -serve-bin "$out/activeserve" -out "$out" "$@"
