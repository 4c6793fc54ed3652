#!/usr/bin/env bash
# Builds the benchmark (the test binary of the perfbench package) from the
# sources in this checkout and runs it with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload sor-paper --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build/perfbench.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; keep those inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

bin="$out/bin/perfbench"
(cd perfbench && go test -c -o "$bin.$$" .) >&2
mv "$bin.$$" "$bin"
exec "$bin" "$@"
