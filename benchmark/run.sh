#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the
# checkout's root. Everything the build writes (binary, Go build cache)
# stays under .bench_build/, so a run touches nothing outside the tree.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/lgbench" .) >&2
LGBENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export LGBENCH_COMMIT
cd "$root"
exec "$out/lgbench" "$@"
