#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it with
# the given arguments:
#
#   bash qosbench/run.sh --workload sweep|qosd-deep \
#       --seed N --seconds S --trace 0|1
#
# Every build artefact (binary, Go build cache, module cache, Go's user
# config, temporary files) stays under the checkout's build directory,
# $CARGO_TARGET_DIR when set, otherwise .bench_build.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/qosbench" && go build -o "$out/qosbench" .)
cd "$root"
exec "$out/qosbench" "$@"
