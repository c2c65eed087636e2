#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, e.g.
#
#   bash perfbench/run.sh --workload adam_deep --seed 1 --seconds 45 --trace 0
#
# The binary, the Go build cache, the Go tools' config directory (where
# they keep telemetry counters) and the span files stay under
# .bench_build at the repository root, next to this directory. Without
# the repository around it the build fails, and so does the run.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
