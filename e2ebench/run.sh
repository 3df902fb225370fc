#!/usr/bin/env bash
# Builds e2ebench from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload point-index --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write stays under .bench_build/ in that directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOFLAGS= \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOENV=off CGO_ENABLED=0
(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
