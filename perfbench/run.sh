#!/usr/bin/env bash
# Builds the load generator from the source tree it sits in, then runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload oltp_read --seed 1 --seconds 20 --trace 0
# Build outputs, databases and traces go under $CARGO_TARGET_DIR
# (default .bench_build), which the repository's .gitignore lists.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the repository root; the engine sources are missing here" >&2
  exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/tmp"

# Keep the toolchain's caches and temporary files inside the output
# directory, and never reach for the network: the module has no
# dependencies beyond the standard library and the engine next to it.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
  GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
