#!/usr/bin/env bash
# Builds the sweep benchmark from source and runs it from the repository
# root. Every build artefact (binary, Go build cache, temporary cache
# directories) stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload quick-cold --seed 1 --seconds 40 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
