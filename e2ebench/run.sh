#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run in, then runs it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload regress --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the go command's own configuration
# and telemetry files, and the benchmark's scratch corpora all live under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/e2ebench" build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" -root "$root" -out "$out" "$@"
