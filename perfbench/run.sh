#!/usr/bin/env bash
# Builds the epoch-pipeline benchmark from the checkout's sources and runs
# it with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 12 --trace 0
#
# The Go build cache, the binary and traced-mode span files all stay in the
# build directory ($CARGO_TARGET_DIR, default .bench_build), so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOENV=off
go build -C "$here" -buildvcs=false -trimpath -o "$out/perfbench" .

export PERFBENCH_OUT="$out"
commit=none
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)"
fi
export PERFBENCH_COMMIT="$commit"
cd "$root"
exec "$out/perfbench" "$@"
