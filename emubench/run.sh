#!/usr/bin/env bash
# Builds the emubench binary from source and runs it. Run it from the
# repository root; every argument is passed on to the binary:
#
#   bash emubench/run.sh --workload packet-ckpt --seed 1 --seconds 40 --trace 0
#   bash emubench/run.sh --steady 10 --seconds 40
#
# The binary, the Go build cache and the span files of traced runs stay
# under .bench_build/ in the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local \
	GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$out/emubench" .) >&2
exec "$out/emubench" "$@"
