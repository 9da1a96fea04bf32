#!/usr/bin/env bash
# Builds simbench from source and runs it. Run from the repository root:
#
#   bash simbench/run.sh --workload batch|tenants|fleet --seed N --seconds S --trace 0|1
#
# Every build product, the Go build cache and the traced run's span files go
# under $CARGO_TARGET_DIR (default .bench_build) in the current directory, so
# nothing is written outside the checkout. The build needs the repository's
# Go module one directory above this script; without it the build fails and
# the script exits non-zero before printing anything.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$(pwd)/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -o "$out/simbench" .)
exec "$out/simbench" --trace-out "$out/trace" "$@"
