#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the repository
# root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload synth-plant --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the toolchain's configuration and
# telemetry files, and the traced runs' span files all stay under
# .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
