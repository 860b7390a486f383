#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# directory (the checkout root) and runs it with the given arguments.
# Everything the Go toolchain writes — build cache, module cache, its
# own config — is pointed inside .bench_build/, so a run reads and
# writes only inside the checkout. No network: the module has no
# dependency outside this repository.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/rqs-benchmark" .)
exec "$build/rqs-benchmark" "$@"
