#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 30 --trace 0
#
# All build state (Go build cache, module cache, temporary files, the go
# command's configuration and telemetry, the binary) stays in .bench_build
# under the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
