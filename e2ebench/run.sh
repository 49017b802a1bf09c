#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root, for example:
#
#   bash e2ebench/run.sh --workload cold-train --seed 1 --seconds 12 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory: the Go build cache, the binary, temporary artifact stores and
# trace files. The Go toolchain's own configuration and telemetry are kept
# there too, so a run writes nothing outside the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home/.config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# Build to a private name and rename, so a run never execs a half-written
# binary or fails on one another run is still executing.
(cd e2ebench && go build -o "$build/e2ebench.$$" .)
mv -f "$build/e2ebench.$$" "$build/e2ebench"
exec "$build/e2ebench" --dir "$build" "$@"
