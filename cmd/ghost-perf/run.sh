#!/usr/bin/env bash
# Builds the ghost-perf benchmark from source and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash cmd/ghost-perf/run.sh --workload shinjuku-rocksdb --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every directory the go command
# might write (module cache, config, telemetry, temporary files) live
# under the build directory: $CARGO_TARGET_DIR when set, else
# .bench_build. The build is offline (GOPROXY=off) and uses the
# installed toolchain only. With --trace 1 the spans are written to
# ghost-perf-trace.json there.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$root/cmd/ghost-perf" && go build -o "$out/ghost-perf" .)
exec "$out/ghost-perf" -trace-out "$out/ghost-perf-trace.json" "$@"
