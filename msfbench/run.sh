#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash msfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes (the Go build cache, the binary, serve's graph files
# and span JSON) stays under .bench_build in the directory it is run from.
# The msfbench module reaches the library through `replace mndmst => ../`,
# so the build fails, and the script exits non-zero, outside a checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"

mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/bin/msfbench" .)
exec "$out/bin/msfbench" --workdir "$out/work" "$@"
