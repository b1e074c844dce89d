#!/usr/bin/env bash
# Builds kcenterd and the benchmark from this checkout's sources, then runs
# one workload: bash benchledger/run.sh --workload W --seed N --seconds S --trace 0|1
# Every build and run artefact stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config/go/telemetry"
# Telemetry off: in its default mode the go command forks a detached
# telemetry process that outlives the build.
printf 'off\n' >"$build/config/go/telemetry/mode"
# The module has no dependencies: nothing is fetched, and the toolchain on
# PATH is used as is.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
  GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off
go build -o "$build/bin/kcenterd" ./cmd/kcenterd
(cd benchledger && go build -o "$build/bin/benchledger" .)
if [ -e "$root/.git" ] && sha="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
  SOURCE_ID="git:$sha"
else
  SOURCE_ID="tree:$(find . -path ./.bench_build -prune -o -name '*.go' -type f -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
export SOURCE_ID
exec "$build/bin/benchledger" --bin "$build/bin" --out "$build/ledger" "$@"
