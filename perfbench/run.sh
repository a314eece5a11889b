#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments, e.g.:
#
#   bash perfbench/run.sh --workload pay --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, the program
# binary, data directories, span dumps) stays under perfbench/.work.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$here/.work"
mkdir -p "$work/tmp" "$work/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
export GOCACHE="$work/gocache"
export GOMODCACHE="$work/gomodcache"
export GOPATH="$work/gopath"
export GOTMPDIR="$work/tmp"
export TMPDIR="$work/tmp"
export XDG_CONFIG_HOME="$work/config"
go -C "$here" build -o "$work/perfbench" . >&2
exec "$work/perfbench" -workdir "$work" "$@"
