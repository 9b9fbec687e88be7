#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the build and the run write stays inside the checkout:
# the Go caches, the binary and TMPDIR live under .bench_build/, the
# extracts and traces under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/tdebench" .)
cd "$root"
exec "$build/tdebench" "$@"
