#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it from the root with the arguments given. Everything the
# Go toolchain writes — build cache, temporary files, module path, its
# own usage counters — is pointed into .bench_build/ too, so nothing is
# written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/ltnc-bench" .
cd "$root"
exec "$build/ltnc-bench" "$@"
