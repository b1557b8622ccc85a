#!/usr/bin/env bash
# Builds cmd/sketchd and the perfbench driver from source, then runs the
# driver with the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Every build output, cache and scratch file stays under .bench_build/
# in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/sketchd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout (cmd/sketchd not found)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/sketchd" ./cmd/sketchd
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -sketchd "$out/sketchd" -work "$out" "$@"
