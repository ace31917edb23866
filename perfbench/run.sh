#!/usr/bin/env bash
# Builds the benchmark command from source into .bench_build and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and results all stay under
# .bench_build (or $CARGO_TARGET_DIR when set), inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go -C perfbench build -o "$build/perfbench" ./cmd/perfbench

commit=unknown
if [ -d .git ] && command -v git >/dev/null; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" --out "$build/perfbench-results" --commit "$commit" "$@"
