#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload cold-query --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, temporary data directories, run records)
# goes under .bench_build/ in the current directory; nothing is read from
# or written to the user's home or the system temp directory.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi

work="$root/.bench_build"
mkdir -p "$work/gocache" "$work/tmp" "$work/home" "$work/gopath"
export HOME="$work/home"
export XDG_CONFIG_HOME="$work/home/.config"
export XDG_CACHE_HOME="$work/home/.cache"
export GOCACHE="$work/gocache"
export GOPATH="$work/gopath"
export GOMODCACHE="$work/gopath/pkg/mod"
export GOTMPDIR="$work/tmp"
export TMPDIR="$work/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off GOFLAGS=
unset GOMAXPROCS GOGC GOMEMLIMIT GODEBUG

(cd "$root/perfbench" && go build -o "$work/perfbench" .)

# A run that outgrows 4 GiB of address space dies with a Go out-of-memory
# error instead of taking the host's memory from other processes.
ulimit -v 4194304
exec "$work/perfbench" -root "$root" "$@"
