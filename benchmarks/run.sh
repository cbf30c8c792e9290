#!/usr/bin/env bash
# The one command. Builds dsqzd and the benchmark into benchmarks/out/bin
# (a no-op when they are current), then
#   run.sh                      runs every workload, untraced then traced,
#                               and prints workload/name value unit
#   run.sh --workload W ...     runs one workload and prints the JSON line
#                               (the form BENCHMARK.json's command takes)
#   run.sh -aa N                A/A mode
# Everything it writes — binaries, Go caches, archives, traces — stays under
# benchmarks/out/.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$here/out"

# The parent directory must be the deepsqueeze module: the benchmark builds
# the program from source.
if [ ! -f "$here/../go.mod" ]; then
    echo "run.sh: $here/.. is not the deepsqueeze module (no go.mod)" >&2
    exit 2
fi
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

build_start=$(date +%s.%N)
(cd "$here" && go build -o "$out/bin/dsqzd" deepsqueeze/cmd/dsqzd && go build -o "$out/bin/benchmarks" .)
build_end=$(date +%s.%N)
# bench.build_s: the first (cold) build's time is kept; later no-op builds
# do not overwrite it.
if [ ! -f "$out/build_s" ]; then
    echo "$build_start $build_end" | awk '{printf "%.3f\n", $2 - $1}' > "$out/build_s"
fi

if [ -d "$here/../.git" ] && command -v git >/dev/null 2>&1; then
    BENCH_GIT_REV="$(git -C "$here/.." rev-parse --short HEAD 2>/dev/null || echo unknown)"
    export BENCH_GIT_REV
fi

if [ "$#" -eq 0 ]; then
    exec "$out/bin/benchmarks" -all -seed "${SEED:-1}"
fi
exec "$out/bin/benchmarks" "$@"
