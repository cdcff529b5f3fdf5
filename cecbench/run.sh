#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; arguments are passed
# through (--workload, --seed, --seconds, --trace). Run from the repository
# root. Every build artifact, cache and temporary file stays under
# .bench_build/ of the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go -C "$root/cecbench" build -o "$out/cecbench" .
exec "$out/cecbench" "$@"
