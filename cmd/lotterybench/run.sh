#!/usr/bin/env bash
# Builds cmd/lotterybench from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash cmd/lotterybench/run.sh --workload figs --seed 1 --seconds 12 --trace 0
#
# The Go build cache, temp files and the benchmark's own scratch
# directories all live under .bench_build, so a run writes nothing
# outside the checkout. Outside a full checkout (no ../../go.mod) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd cmd/lotterybench && go build -o "$out/lotterybench" .)
exec "$out/lotterybench" "$@"
