#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload warm-mix --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds, caches and
# writes stays under .bench_build/ there.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an ageguard checkout (go.mod, internal/ and perfbench/ not found in $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# The go command keeps telemetry and other state under the user's home
# and config directories; point them into the build directory too.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
