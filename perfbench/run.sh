#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload scale --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, toolchain
# config, binary) stays under .bench_build/ in the checkout. Build output
# goes to stderr so the last line of stdout is always the benchmark's JSON
# result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
cd "$root"
exec "$out/bin/perfbench" "$@"
