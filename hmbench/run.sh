#!/usr/bin/env bash
# Builds hmbench from the checkout this script lives in and runs it with
# the arguments given, e.g.
#
#   bash hmbench/run.sh --workload serve --seed 1 --seconds 40 --trace 0
#
# Every build artefact (binary, Go build cache, and the traced run's span
# dump, written beside the binary) goes under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$here" build -o "$out/hmbench" .
exec "$out/hmbench" "$@"
