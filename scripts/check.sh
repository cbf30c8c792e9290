#!/usr/bin/env bash
# Tier-1 gate: vet, formatting, build, and the full test suite under the
# race detector (the pipeline worker pool introduces real concurrency, so
# -race is mandatory, not optional). Every contract test runs once, in that
# step; the steps after it are the ones it cannot stand in for — the arm64
# listing, the bounded-memory smoke, the portable kernels (-tags noasm), the
# benchmark and repo-benchmark smokes, the tests that only mean something
# uninstrumented (allocation ceilings, pinned archive sizes; they skip
# themselves under -race), the fuzz smoke — and the LOC report. Run from the
# repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# step NAME closes the previous step with its wall time and opens the next.
step_name="" step_t0=0
step() {
    if [ -n "$step_name" ]; then
        echo "-- $step_name: $((SECONDS - step_t0))s"
    fi
    step_name="$1"
    step_t0=$SECONDS
    if [ -n "$step_name" ]; then
        echo "== $step_name =="
    fi
}

step "go vet"
go vet ./...

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go build"
go build ./...

step "go test -race"
go test -race ./...

step "arm64 fused multiply-add check"
# Go fuses x*y + z into one rounding on arm64 (and ppc64le, s390x, riscv64)
# unless the product is explicitly converted. A fused kernel rounds
# differently from amd64's, and an archive would replay through different
# bits: the arm64 listing of internal/mat must hold no fused multiply-add.
if GOARCH=arm64 go build -gcflags=-S ./internal/mat 2>&1 | grep -E 'F(N)?M(ADD|SUB)[SD]'; then
    echo "internal/mat compiles to fused multiply-adds on arm64: write the product as float64(a*b)" >&2
    exit 1
fi

step "bounded-memory smoke"
# Streaming compress + decompress of a CSV under a GOMEMLIMIT far below the
# file size: only the row-group pipeline (O(group) memory) can survive this.
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
go build -o "$smokedir/dsqz" ./cmd/dsqz
awk 'BEGIN {
    print "city,temp,load"
    for (i = 0; i < 400000; i++)
        printf "c%d,%.6f,%.6f\n", i % 7, 20 + (i % 1000) / 37.0, (i * 31 % 9973) / 11.0
}' > "$smokedir/big.csv"
csv_bytes=$(wc -c < "$smokedir/big.csv")
# ~9.5 MB of CSV with the heap capped far below it. An in-memory path would
# thrash the GC into the ground; the streaming path holds one row group.
GOMEMLIMIT=8MiB "$smokedir/dsqz" compress -in "$smokedir/big.csv" \
    -out "$smokedir/big.dsqz" -schema "city:cat,temp:num,load:num" \
    -error 0.05 -rowgroup 4096
GOMEMLIMIT=8MiB "$smokedir/dsqz" decompress -in "$smokedir/big.dsqz" \
    -out "$smokedir/back.csv"
back_rows=$(wc -l < "$smokedir/back.csv")
if [ "$back_rows" -ne 400001 ]; then
    echo "bounded-memory smoke: round trip returned $back_rows lines, want 400001" >&2
    exit 1
fi
echo "bounded-memory smoke ok ($csv_bytes CSV bytes under GOMEMLIMIT=8MiB)"

step "portable kernels (-tags noasm)"
# noasm drops the amd64 assembly, so that the portable float64 and float32
# loops — what every other architecture runs — compile and are tested on this
# one: the kernel and model suites, the golden archives' decode, and one table
# compressed by both builds into the same bytes. Without -race: the step above
# has raced this code already.
go test -tags noasm ./internal/mat ./internal/nn
go test -tags noasm -run 'Golden' ./internal/core
go build -tags noasm -o "$smokedir/dsqz-noasm" ./cmd/dsqz
head -n 20001 "$smokedir/big.csv" > "$smokedir/small.csv"
for b in dsqz dsqz-noasm; do
    "$smokedir/$b" compress -in "$smokedir/small.csv" -out "$smokedir/small-$b.dsqz" \
        -schema "city:cat,temp:num,load:num" -error 0.05
done
cmp "$smokedir/small-dsqz.dsqz" "$smokedir/small-dsqz-noasm.dsqz"

step "benchmark smoke"
# One iteration of the training and categorical-inference benchmarks (the repo
# benchmark's 21-column shape among them: TrainBatchCategorical, and
# PredictCategorical at both float widths): catches kernels, the trainer or
# the predictors panicking under benchmark shapes without paying for a real
# measurement.
go test -run='^$' -bench='TrainBatch|TrainEpoch|PredictCategorical' -benchtime=1x ./internal/nn
go test -run='^$' -bench='Into' -benchtime=1x ./internal/mat

step "repo benchmark smoke"
# benchmarks/ is a module of its own, which the root module's `go test ./...`
# does not reach: tiny tables, one round of every workload, every output
# checked.
(cd benchmarks && go test ./...)

step "uninstrumented tests"
# The tests that skip themselves under the race detector and only run here.
# Allocation gates: testing.AllocsPerRun ceiling on the warm cached aggregate
# query, and the writer's bytes per row group under the default codec
# selection against the stored codec — race instrumentation adds allocations
# and makes sync.Pool drop items. Pinned archive sizes: the two ratio
# acceptance bounds (range codecs >= 10% off the near-deterministic fixture's
# failure+code bytes, residual digits >= 10% off the clickstream archive),
# 20 000- and 30 000-row compress pairs that would cost tens of seconds raced.
go test -run='^TestWarmCachedQueryAllocs$' -count=1 ./internal/serve
go test -run='^(TestArchiveWriterAutoCodecAllocs|TestAutoUsesRangeCodecsOnSkewedData|TestResidualShrinksClickstream)$' -count=1 ./internal/core

step "fuzz smoke"
# Short coverage-guided runs of the decode-path fuzzers: any panic or
# unclassified error on arbitrary bytes fails the gate. One worker: with the
# default two on a two-CPU box the time goes to baseline coverage (≈ 30
# executions in 10 s against thousands).
go test -run='^$' -fuzz=FuzzDecompress -fuzztime=10s -parallel=1 ./internal/core
go test -run='^$' -fuzz=FuzzSectionReader -fuzztime=5s -parallel=1 ./internal/core

step "non-test LOC per package"
# ROADMAP aim 2 tracks these: the design is judged by how little code holds
# the same behaviour. Every package of the root module: internal/*, the
# commands, and the facade at the root; Go and assembly sources both, so that
# the number ROADMAP quotes for a package is the number printed here, and
# their sum. benchmarks/ is a module of its own and no part of that sum: its
# line comes last.
loc() {
    find "$1" -maxdepth 1 \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' -exec cat {} + | wc -l
}
total=0
for pkg in internal/*/ cmd/*/ ./; do
    n=$(loc "$pkg")
    printf '%6d %s\n' "$n" "$pkg"
    total=$((total + n))
done
printf '%6d root module\n' "$total"
printf '%6d benchmarks/ (own module, not in the total)\n' "$(loc benchmarks)"

step ""
echo "all checks passed in ${SECONDS}s"
# A warning, not a failure — host noise moves it — so that a step that grew
# shows here (see the per-step times above) before a pipeline timeout does.
# The arm64 listing and the noasm step together add ≈ 5 s on warm Go caches
# and ≈ 15 s on cold ones (the arm64 standard library, and a second compile
# of mat, nn, core and dsqz); the budget stands.
budget=240
if [ "$SECONDS" -le "$budget" ]; then
    echo "budget $budget s: ok"
else
    echo "budget $budget s: OVER"
fi
