#!/usr/bin/env bash
# The benchmark's entry point (the "command" of BENCHMARK.json): build the
# bench module from source and run one workload. Run from the repository
# root; the driver's arguments (--workload, --seed, --seconds, --trace)
# pass straight through to `bench run`.
#
# Everything the build writes — the binary, Go's build cache and the go
# command's own counter files — stays in .bench_build/ inside the checkout,
# so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -o "$build/aqbench" .)
exec "$build/aqbench" run -outdir "$here/out" "$@"
