#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#	bash perfbench/run.sh --workload svc-water --seed 0 --seconds 15 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build
# in the current directory: the Go build cache, the binary, the service
# journal directories and the span files of traced runs.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The build output goes to stderr: the last line of stdout is the result.
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
