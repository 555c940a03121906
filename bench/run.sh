#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root,
# passing every argument through (see bench/README.md). The Go build
# cache, Go's own state files and temporary files stay under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$out/bin/dewbench" .
exec "$out/bin/dewbench" -root "$root" "$@"
