#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sim-deep --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of the checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"

commit=unknown
if command -v git >/dev/null 2>&1 && git -C "$root" rev-parse --git-dir >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" --work "$out/perfbench-work" --commit "$commit" "$@"
