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
# unless the product is explicitly converted. A fused kernel, activation or
# training step rounds differently from amd64's, and an archive would replay
# through different bits. In the arm64 listings of internal/mat and
# internal/nn, counted per TEXT symbol, the only fused instructions allowed
# are mat.exp's: the reference exponential fuses on purpose, once per
# math.FMA call, where amd64's Exp does on an FMA CPU.
exp_sym=deepsqueeze/internal/mat.exp
exp_fma=$(grep -o 'math\.FMA(' internal/mat/elementwise.go | wc -l)
fused=$(GOARCH=arm64 go build -gcflags=-S ./internal/mat ./internal/nn 2>&1 |
    awk -v ref="$exp_sym" -v want="$exp_fma" '
        /STEXT/ { sym = $1 }
        /F(N)?M(ADD|SUB)[SD]/ { n[sym]++ }
        END {
            for (s in n) if (s != ref) print s ": " n[s] " fused multiply-adds, want 0"
            if (n[ref] + 0 != want) print ref ": " n[ref] + 0 " fused multiply-adds, want " want
        }')
if [ -n "$fused" ]; then
    echo "$fused" >&2
    echo "fused multiply-adds on arm64 outside mat.exp's math.FMA calls: write the product as float64(a*b)" >&2
    exit 1
fi
echo "arm64: $exp_fma fused multiply-adds, all in $exp_sym"

step "bounded-memory smoke"
# Streaming compress + decompress, whole and projected, of a CSV under a
# GOMEMLIMIT far below the file size: only the row-group pipeline (O(group)
# memory) can survive this.
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
# A projection and a row span go through the same streaming reader: groups
# outside the span are checksummed, not decoded, and the output is exactly
# the matching slice of the full decode.
GOMEMLIMIT=8MiB "$smokedir/dsqz" decompress -in "$smokedir/big.dsqz" \
    -out "$smokedir/slice.csv" -cols load -rows 100000:300000
slice_rows=$(wc -l < "$smokedir/slice.csv")
if [ "$slice_rows" -ne 200001 ]; then
    echo "bounded-memory smoke: -cols load -rows 100000:300000 returned $slice_rows lines, want 200001" >&2
    exit 1
fi
cut -d, -f3 "$smokedir/back.csv" | sed -n '1p;100002,300001p' | cmp - "$smokedir/slice.csv"
echo "bounded-memory smoke ok ($csv_bytes CSV bytes under GOMEMLIMIT=8MiB, full and projected)"

step "portable kernels (-tags noasm)"
# noasm drops the amd64 assembly, so that the portable float64 loops and the
# reference exp — what every other architecture runs — compile and are tested
# on this one: the kernel and model suites (the pinned exp and tanh bits and
# the softmax pin among them), the golden archives' decode (f32_v2's through
# the float32 loop, which has no assembly to drop), the writer fingerprints
# (the bytes Compress emits, pinned), the rank-to-class pin, every read path
# at every parallelism (TestDecompressParallelDeterminism: where decode splits
# a group into row parts must not move a bit of the portable kernels' output
# either), and tables compressed by both builds into the same bytes. Without
# -race: the step above has raced this code already.
go test -tags noasm ./internal/mat ./internal/nn
go test -tags noasm -run 'Golden|Fingerprint|^TestClassAtRankMatchesReference$|^TestDecompressParallelDeterminism$' ./internal/core
go build -tags noasm -o "$smokedir/dsqz-noasm" ./cmd/dsqz
head -n 20001 "$smokedir/big.csv" > "$smokedir/small.csv"
for b in dsqz dsqz-noasm; do
    "$smokedir/$b" compress -in "$smokedir/small.csv" -out "$smokedir/small-$b.dsqz" \
        -schema "city:cat,temp:num,load:num" -error 0.05
done
cmp "$smokedir/small-dsqz.dsqz" "$smokedir/small-dsqz-noasm.dsqz"
# A categorical-heavy table — 68 Census columns: the auxiliary layer's tanh,
# the shared stack's ReLU passes and a softmax per column. The archives from
# the two builds must match, and the noasm binary must decode the asm build's
# archive to the asm decode's bytes.
go build -o "$smokedir/dsgen" ./cmd/dsgen
"$smokedir/dsgen" -dataset census -rows 1000 > "$smokedir/census.csv"
census_schema=$(head -n 1 "$smokedir/census.csv" | sed 's/,/:cat,/g; s/$/:cat/')
for b in dsqz dsqz-noasm; do
    "$smokedir/$b" compress -in "$smokedir/census.csv" -out "$smokedir/census-$b.dsqz" \
        -schema "$census_schema"
    "$smokedir/$b" decompress -in "$smokedir/census-dsqz.dsqz" -out "$smokedir/census-$b.csv"
done
cmp "$smokedir/census-dsqz.dsqz" "$smokedir/census-dsqz-noasm.dsqz"
cmp "$smokedir/census-dsqz.csv" "$smokedir/census-dsqz-noasm.csv"

step "benchmark smoke"
# One iteration of the training and categorical-inference benchmarks (the repo
# benchmark's 21-column shape among them: TrainBatchCategorical, and
# PredictCategorical at both float widths) and of the element-wise passes and
# the rank-to-class step at Census shapes (SoftmaxCensusShapes, Exp,
# ClassAtRankCensus), and of the CSV writer on a decoded Monitor row group and
# on all-distinct values (CSVWriterQuantized, CSVWriterDistinct): catches
# kernels, the trainer, the predictors or the writer panicking under benchmark
# shapes without paying for a real measurement.
go test -run='^$' -bench='TrainBatch|TrainEpoch|PredictCategorical|SoftmaxCensusShapes' -benchtime=1x ./internal/nn
go test -run='^$' -bench='ClassAtRankCensus' -benchtime=1x ./internal/core
go test -run='^$' -bench='Into|^BenchmarkExp$' -benchtime=1x ./internal/mat
go test -run='^$' -bench='CSVWriter' -benchtime=1x ./internal/dataset

step "repo benchmark smoke"
# benchmarks/ is a module of its own, which the root module's `go test ./...`
# does not reach: tiny tables, one round of every workload, every output
# checked.
(cd benchmarks && go test ./...)

step "examples"
# The two library examples that finish in about a second, each exiting 1 on a
# failed bound audit: quickstart's compress/decompress round trip, and
# streaming's one ArchiveWriter — a training group, then seven refit groups,
# each read back by an ArchiveReader and checked against its bounds. The
# other three examples take 7–14 s each and stay out of the gate.
go run ./examples/quickstart > /dev/null
go run ./examples/streaming > /dev/null

step "uninstrumented tests"
# The tests that skip themselves under the race detector and only run here.
# Allocation gates: testing.AllocsPerRun ceiling on the warm cached aggregate
# query, the bytes a warm handle allocates per query with collections between
# queries (its inference memory must survive them), the writer's bytes per row
# group against an absolute ceiling and per Write against linear growth, a
# streaming reader's second group against building inference memory or decode
# slots again, and WriteCSV of a 205-row × 4-numeric-column table (a serve-pruned point
# response) — race instrumentation adds allocations and makes sync.Pool drop
# items. Pinned archive sizes: the two ratio
# acceptance bounds (range codecs >= 10% off the near-deterministic fixture's
# failure+code bytes, residual digits >= 10% off the clickstream archive),
# 20 000- and 30 000-row compress pairs that would cost tens of seconds raced.
# The exp and tanh sweeps: millions of scalar calls, nothing to race; the
# range coder's rescale-boundary and two-call-reference sweeps and colfile's
# decompression-bomb cap, single-goroutine work that skips raced; and the
# long sweeps of the softmax, rank-to-class and fused range-decode pins and of
# the read paths at every parallelism, which run a short trial raced.
# The streaming reader's and writer's tests again on one P (GOMAXPROCS=1):
# the goroutine decoding a group ahead and the caller rendering the group
# before it, or the goroutine compressing a group and the caller parsing the
# next, take turns on it, an interleaving two Ps rarely produce.
go test -run='^TestWarmCachedQueryAllocs$' -count=1 ./internal/serve
go test -run='^TestWriteCSVAllocs$' -count=1 ./internal/dataset
GOMAXPROCS=1 go test -run='^(TestArchiveReader.*|TestConcurrentReaders|TestDecompressParallelDeterminism)$' -count=1 ./internal/core
GOMAXPROCS=1 go test -run='^(TestArchiveWriter.*|TestStream.*|TestWriterFingerprint)$' -count=1 ./internal/core
go test -run='^(TestWarmHandleQueryBytesSurviveGC|TestReaderReusesInferenceMemory|TestReaderReusesDecodeSlots|TestDecompressParallelDeterminism|TestArchiveWriterAutoCodecAllocs|TestArchiveWriterLargeWriteIsLinear|TestAutoUsesRangeCodecsOnSkewedData|TestResidualShrinksClickstream|TestClassAtRankMatchesReference)$' -count=1 ./internal/core
go test -run='^(TestExpMatchesReference|TestExpReferenceMatchesMathExp|TestTanhReferenceMatchesMathTanh)$' -count=1 ./internal/mat
go test -run='^TestSoftmaxMatchesReference$' -count=1 ./internal/nn
go test -run='^(TestDecodeAdaptiveMatchesReference|TestRescaleAtMaxTotalBoundary|TestDecoderMatchesTwoCallReference)$' -count=1 ./internal/rangecoder
go test -run='^TestInflateBombCap$' -count=1 ./internal/colfile

step "fuzz smoke"
# Short coverage-guided runs of the decode-path fuzzers: any panic or
# unclassified error on arbitrary bytes fails the gate. Their seeds' segment
# and archive checksums are refreshed after every mutation, so mutations reach
# unpack, resolve and decode; FuzzArchiveReader drives the streaming reader,
# which decodes groups before the archive checksum can vouch for them. One
# worker: with the default two on a two-CPU box the time goes to baseline
# coverage (≈ 30 executions in 10 s against thousands). FuzzDecompressInts
# holds the integer-stream decoders — every frame tag, the ones writers no
# longer build included — to "at most max values or ErrCorrupt", and
# FuzzCompressInts the integer-stream writer to a round trip, one frame per
# stream, the ungated selector's frame wherever its DEFLATE gate admits the
# stream, and never more than the best frame without DEFLATE. The bitio runs
# pin the word-at-a-time bit writer and reader to the bit-at-a-time references
# kept in their test, the rangecoder run the fused adaptive decode loop to the
# per-symbol decoder kept in its tests, and the dataset run the CSV writer to
# encoding/csv, kept in its test.
go test -run='^$' -fuzz=FuzzDecompress -fuzztime=10s -parallel=1 ./internal/core
go test -run='^$' -fuzz=FuzzArchiveReader -fuzztime=5s -parallel=1 ./internal/core
go test -run='^$' -fuzz=FuzzSectionReader -fuzztime=5s -parallel=1 ./internal/core
go test -run='^$' -fuzz=FuzzDecompressInts -fuzztime=5s -parallel=1 ./internal/codec
go test -run='^$' -fuzz='^FuzzCompressInts$' -fuzztime=5s -parallel=1 ./internal/codec
go test -run='^$' -fuzz=FuzzWriterMatchesReference -fuzztime=5s -parallel=1 ./internal/bitio
go test -run='^$' -fuzz=FuzzReaderMatchesReference -fuzztime=5s -parallel=1 ./internal/bitio
go test -run='^$' -fuzz=FuzzDecodeAdaptiveMatchesReference -fuzztime=5s -parallel=1 ./internal/rangecoder
go test -run='^$' -fuzz=FuzzCSVWriterMatchesEncodingCSV -fuzztime=5s -parallel=1 ./internal/dataset

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
# of mat, nn, core and dsqz), and the noasm step's Census cross-build a few
# seconds more (two compresses, two decodes); the budget stands.
budget=240
if [ "$SECONDS" -le "$budget" ]; then
    echo "budget $budget s: ok"
else
    echo "budget $budget s: OVER"
fi
