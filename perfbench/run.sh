#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs one workload:
#
#   bash perfbench/run.sh --workload paper-analyze --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. The binary, the Go build cache,
# the Go tool's own state and the durable data directories of the runs all
# stay under .bench_build.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a tagdm checkout (go.mod, internal/ and perfbench/ are required)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		GOPATH="$out/home/go" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
		GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" --workdir "$out" "$@"
