#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root; every flag is passed to the benchmark:
#
#   bash benchmark/run.sh --workload fleet-ingest --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and span traces go to .bench_build/ in
# the current directory, so the run reads and writes nothing outside it
# apart from the Go toolchain itself.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's user configuration and local
# telemetry counters inside .bench_build as well.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
    GOFLAGS=-mod=readonly GOWORK=off

commit=unknown
if [ -e "$root/.git" ]; then
    commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$here" && go build -buildvcs=false -o "$out/rejuvbench" .) >&2
exec "$out/rejuvbench" --commit "$commit" "$@"
