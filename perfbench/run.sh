#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments. Everything it writes (build cache, binary, scratch
# files) stays under the build directory: $CARGO_TARGET_DIR if set,
# else .bench_build at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --tmp "$out" "$@"
